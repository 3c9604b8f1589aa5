// Command pawsd serves a trained PAWS model over JSON/HTTP: batched
// detection-probability predictions, park-wide risk maps (LRU-cached),
// robust patrol plans, and an async job API for the long-running work
// (multi-season simulations, remote training, experiment sweeps).
//
//	pawsd -train -model mfnp.paws                # train, persist, serve
//	pawsd -model mfnp.paws                       # serve a persisted model
//	pawsd -kind DTB-iW -park SWS -scale full …   # pick model and park
//	pawsd … -job-workers 2 -job-ttl 30m          # tune the job layer
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/v1/models
//	curl -s -X POST localhost:8080/v1/predict \
//	     -d '{"model":"default","effort":1.5,"cells":[0,1,2]}'
//	curl -s 'localhost:8080/v1/riskmap?model=default&effort=2'
//	curl -s -X POST localhost:8080/v1/plan \
//	     -d '{"model":"default","post":0,"beta":0.9}'
//	curl -s -X POST localhost:8080/v1/jobs \
//	     -d '{"kind":"simulate","simulate":{"park":"rand:16","seasons":6}}'
//	curl -sN localhost:8080/v1/jobs/j-000001/events   # NDJSON stream
//	curl -s localhost:8080/v1/jobs/j-000001/result
//
// Stepped environment sessions (/v1/envs) expose the closed-loop
// simulation season by season: create a session with a park spec and seed,
// POST per-cell effort allocations to …/step, and read back each season's
// outcome — the remote half of internal/env. -env-ttl and
// -env-max-sessions bound retention; creates beyond the bound shed with
// 429 + Retry-After.
//
// # Fleet mode
//
// N replicas share one on-disk model store (-store DIR, typically on a
// shared filesystem) and sit behind the pawsgate routing proxy:
//
//	pawsd -replica a -store /srv/paws/models -train -addr :8081
//	pawsd -replica b -store /srv/paws/models -addr :8082   # store-only
//	pawsgate -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//
// A replica started with -store and neither -model nor -train serves
// purely from the store: it registers every published model (regenerating
// each serving context deterministically from the store entry's
// park/scale/seed) and polls the index (-store-poll) for new publications.
// Train jobs publish their results to the store, so a model trained via
// any replica becomes servable by every replica within one poll interval.
// -replica namespaces job IDs ("j-a-000001") so the gate can route job
// polls to the replica that owns the job, and GET /statusz reports queue
// depth and admission state for the gate's least-loaded routing. Each
// replica behind pawsgate needs its own -replica: the gate keeps a replica
// that reports none, or one another replica reports, out of rotation.
// -admission-budget and -admission-max-queue shed job submissions with
// 429 + Retry-After once the estimated backlog exceeds the budget.
//
// On SIGINT/SIGTERM the HTTP listener stops first, then the job layer
// drains: running and queued jobs finish (bounded by -drain), so a
// graceful restart never abandons accepted work mid-run.
//
// The persisted model file stores only the model; the serving context (park
// features and patrol-coverage covariate) is regenerated deterministically
// from -park/-scale/-seed, so serve a model file with the same flags it was
// trained under. Only a feature-width mismatch is detected and rejected at
// startup — a different seed or a same-width park regenerates silently
// different feature vectors, so matching the flags is the operator's
// responsibility.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling handlers, served only on the opt-in -pprof listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"paws"
	"paws/internal/serve"
	"paws/internal/store"
)

// options collects pawsd's flag values.
type options struct {
	addr, name, park, scaleStr, kindStr, modelPath string
	seed                                           int64
	train                                          bool
	trainYears, cvFolds, workers                   int
	timeout                                        time.Duration
	cacheSize                                      int
	jobWorkers                                     int
	jobTTL                                         time.Duration
	jobRetain                                      int
	drain                                          time.Duration

	// Env sessions.
	envTTL         time.Duration
	envMaxSessions int

	// Fleet mode.
	storeDir          string
	storePoll         time.Duration
	replica           string
	admissionBudget   time.Duration
	admissionMaxQueue int
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.name, "name", "default", "name the model is served under")
	flag.StringVar(&o.park, "park", "MFNP", "park preset: MFNP, QENP or SWS")
	flag.StringVar(&o.scaleStr, "scale", "small", "park scale: full or small")
	flag.Int64Var(&o.seed, "seed", 7, "root random seed")
	flag.StringVar(&o.kindStr, "kind", "GPB-iW", "model kind: SVB, DTB, GPB, SVB-iW, DTB-iW or GPB-iW")
	flag.StringVar(&o.modelPath, "model", "", "persisted model file to serve; with -train, where to save a freshly trained one")
	flag.BoolVar(&o.train, "train", false, "train a model if -model is missing or unset")
	flag.IntVar(&o.trainYears, "train-years", 3, "training window in years (training holds out the final simulated year)")
	flag.IntVar(&o.cvFolds, "cv", 0, "iWare-E weight-optimization folds (0 = uniform weights)")
	flag.IntVar(&o.workers, "workers", 0, "worker goroutines (1 = sequential, 0 = one per CPU)")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request deadline (0 = none)")
	flag.IntVar(&o.cacheSize, "cache", 64, "risk-map LRU cache entries (negative disables)")
	flag.IntVar(&o.jobWorkers, "job-workers", 4, "concurrently running async jobs (negative = one per CPU)")
	flag.DurationVar(&o.jobTTL, "job-ttl", 15*time.Minute, "how long finished job results are retained")
	flag.IntVar(&o.jobRetain, "job-retain", 64, "max finished jobs retained (oldest evicted first)")
	flag.DurationVar(&o.drain, "drain", 30*time.Second, "how long shutdown waits for running jobs before canceling them")
	flag.DurationVar(&o.envTTL, "env-ttl", 15*time.Minute, "how long idle env sessions are retained (negative disables)")
	flag.IntVar(&o.envMaxSessions, "env-max-sessions", 64, "max retained env sessions (creates beyond it are shed with 429)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /statusz on this address (e.g. localhost:6060); empty disables")
	flag.StringVar(&o.storeDir, "store", "", "shared fleet model store directory; with neither -model nor -train, serve purely from the store")
	flag.DurationVar(&o.storePoll, "store-poll", time.Second, "how often to poll the store index for new publications")
	flag.StringVar(&o.replica, "replica", "", "replica ID in a fleet, unique per replica behind pawsgate (namespaces job and env session IDs, reported by /statusz)")
	flag.DurationVar(&o.admissionBudget, "admission-budget", 0, "job-backlog budget: estimated backlog beyond this rejects submissions with 429 (0 disables)")
	flag.IntVar(&o.admissionMaxQueue, "admission-max-queue", 0, "queue-depth bound: this many queued jobs rejects submissions with 429 (0 disables)")
	flag.Parse()

	if *pprofAddr != "" {
		// The profiling handlers (and /statusz, registered by run) live on
		// http.DefaultServeMux, which the API server never touches, so they
		// are reachable only via this listener.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "pawsd:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scale, err := paws.ParseScale(o.scaleStr)
	if err != nil {
		return err
	}
	kind, err := paws.ParseModelKind(o.kindStr)
	if err != nil {
		return err
	}
	svc := paws.NewService(
		paws.WithWorkers(o.workers),
		paws.WithSeed(o.seed),
		paws.WithKind(kind),
		paws.WithPreset(o.park, scale),
		paws.WithCVFolds(o.cvFolds),
		paws.WithTrainYears(o.trainYears),
	)

	storeOnly := o.storeDir != "" && o.modelPath == "" && !o.train
	if o.storeDir != "" {
		st, err := store.Open(o.storeDir)
		if err != nil {
			return err
		}
		svc.AttachStore(st)
		log.Printf("fleet store attached at %s", o.storeDir)
	}
	if o.storeDir == "" && o.modelPath == "" && !o.train {
		return errors.New("nothing to serve: pass -model with a persisted model, -train, or -store with a fleet store")
	}

	if !storeOnly {
		if err := registerStartupModel(ctx, svc, o, kind); err != nil {
			return err
		}
	}

	// With a store attached, every replica — including the one that just
	// trained — syncs: models published by peers become servable here
	// within one poll interval.
	if o.storeDir != "" {
		syncer, err := paws.NewStoreSyncer(svc)
		if err != nil {
			return err
		}
		n, err := syncer.SyncOnce(ctx)
		if err != nil {
			log.Printf("initial store sync: %v", err)
		}
		log.Printf("store sync registered %d models (%d served total)", n, len(svc.ModelNames()))
		go syncer.Run(ctx, o.storePoll, func(err error) { log.Printf("store sync: %v", err) })
	}

	log.Printf("serving %d models on %s (replica %q)", len(svc.ModelNames()), o.addr, o.replica)
	handler := serve.New(svc, serve.Config{
		RequestTimeout:    o.timeout,
		RiskMapCacheSize:  o.cacheSize,
		JobWorkers:        o.jobWorkers,
		JobResultTTL:      o.jobTTL,
		JobMaxRetained:    o.jobRetain,
		ReplicaID:         o.replica,
		AdmissionBudget:   o.admissionBudget,
		AdmissionMaxQueue: o.admissionMaxQueue,
		EnvTTL:            o.envTTL,
		EnvMaxSessions:    o.envMaxSessions,
	})
	// /statusz, /metricsz and /tracez ride the -pprof debug listener too,
	// so operators can check a replica's load, scrape its metrics and read
	// its trace ring without going through the serving port (or the gate).
	http.DefaultServeMux.Handle("GET /statusz", handler.StatuszHandler())
	http.DefaultServeMux.Handle("GET /metricsz", handler.MetricsHandler())
	http.DefaultServeMux.Handle("GET /tracez", handler.TracezHandler())

	srv := &http.Server{
		Addr:              o.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		log.Printf("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// An open event stream on a running job legitimately outlives the
		// HTTP shutdown budget (the handler returns when the job ends), so
		// a Shutdown error must not skip the job drain — jobs are the work
		// we promised not to abandon.
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("http shutdown: %v (draining jobs anyway)", err)
		}
		// Drain the job layer after the listener stops: running and queued
		// jobs finish; past the drain budget they are canceled and awaited.
		log.Printf("draining jobs (budget %s)", o.drain)
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), o.drain)
		defer cancelDrain()
		if err := handler.Close(drainCtx); err != nil {
			log.Printf("job drain expired: remaining jobs canceled (%v)", err)
		}
		return nil
	}
}

// registerStartupModel builds the startup serving context (scenario →
// train or load → register) and, with a store attached, publishes the
// model to the fleet.
func registerStartupModel(ctx context.Context, svc *paws.Service, o options, kind paws.ModelKind) error {
	log.Printf("generating %s scenario (scale=%s seed=%d)", o.park, o.scaleStr, o.seed)
	sc, err := svc.Scenario(ctx, o.park)
	if err != nil {
		return err
	}
	testYear := sc.Data.Steps[len(sc.Data.Steps)-1].Year

	var model *paws.Model
	if o.modelPath != "" {
		if _, statErr := os.Stat(o.modelPath); statErr == nil {
			log.Printf("loading persisted model from %s", o.modelPath)
			model, err = paws.LoadModelFile(o.modelPath)
			if err != nil {
				return err
			}
		} else if !o.train {
			return fmt.Errorf("model file %s does not exist (pass -train to train and save one)", o.modelPath)
		}
	}
	if model == nil {
		split, err := sc.Data.SplitByTestYear(testYear, o.trainYears)
		if err != nil {
			return err
		}
		log.Printf("training %v on %d points (%d-year window before %d)", kind, len(split.Train), o.trainYears, testYear)
		start := time.Now()
		model, err = svc.Train(ctx, split.Train)
		if err != nil {
			return err
		}
		log.Printf("trained in %s", time.Since(start).Round(time.Millisecond))
		if o.modelPath != "" {
			if err := model.SaveFile(o.modelPath); err != nil {
				return err
			}
			log.Printf("persisted model to %s", o.modelPath)
		}
	}

	// Freeze the serving context at the last pre-test step, mirroring how
	// the experiments build their planner models.
	testFrom, _ := sc.Data.StepsForYear(testYear)
	if _, err := svc.AddModel(ctx, o.name, model, sc.Data, testFrom-1); err != nil {
		return err
	}
	log.Printf("serving model %q (%v, %d park cells)", o.name, model.Kind, sc.Park.Grid.NumCells())

	if st := svc.ModelStore(); st != nil {
		// Skip the publish when the store already holds these exact bytes
		// under this name — a replica restart must not bump the generation
		// and make every peer re-register an unchanged model.
		blob, err := model.SaveBytes()
		if err != nil {
			return err
		}
		if cur, err := st.Lookup(o.name); err == nil && cur.Hash == store.HashBytes(blob) {
			log.Printf("model %q already published (hash %.12s, generation %d)", o.name, cur.Hash, cur.Generation)
			return nil
		}
		entry, err := svc.PublishModel(o.name, paws.StoreMeta{Park: o.park, Scale: o.scaleStr, Seed: o.seed})
		if err != nil {
			return err
		}
		log.Printf("published model %q to the fleet store (hash %.12s, generation %d)", o.name, entry.Hash, entry.Generation)
	}
	return nil
}
