package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"paws"
	"paws/internal/campaign"
	"paws/internal/job"
)

// This file is the HTTP surface of the async job layer: submission of the
// five job kinds (simulate, campaign, train, table2, riskmap), snapshots, the
// replayable NDJSON progress stream, results and cancellation. Each kind
// validates its parameters at submit time — malformed requests, unknown
// park specs and unregistered models fail fast with the structured error
// envelope (400/404) instead of a job that is doomed to fail — and lowers
// to a job.Fn whose result is exactly the response struct the synchronous
// counterpart writes, which is what makes async results byte-identical to
// the blocking endpoints.

// progressPublisher bridges the compute layers' typed ProgressEvents into
// a job's event stream.
func progressPublisher(publish func(job.Event)) paws.ProgressFunc {
	return func(e paws.ProgressEvent) {
		publish(job.Event{Stage: e.Stage, Item: e.Item, Current: e.Current, Total: e.Total})
	}
}

// withTimeout bounds an async job's runtime (the job analogue of a sync
// request's timeout_ms). ms <= 0 leaves the job unbounded.
func withTimeout(fn job.Fn, ms int) job.Fn {
	if ms <= 0 {
		return fn
	}
	return func(ctx context.Context, publish func(job.Event)) (any, error) {
		ctx, cancel := context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
		return fn(ctx, publish)
	}
}

// ------------------------------------------------------------- job kinds

// TrainJobRequest asks for a model to be trained and registered: generate
// the park scenario, fit the configured kind on the pre-test-year window,
// and register the result under Name — after which /v1/predict, riskmap
// and plan answer against it (remote train→serve).
type TrainJobRequest struct {
	// Name registers the trained model in the Service registry (required;
	// re-registering a name replaces the entry).
	Name string `json:"name"`
	// Park is a park spec: MFNP, QENP, SWS or rand:<seed> (default MFNP).
	Park string `json:"park,omitempty"`
	// Scale is "small" or "full" (default small).
	Scale string `json:"scale,omitempty"`
	// Kind is the Table II model kind (default DTB-iW).
	Kind string `json:"kind,omitempty"`
	// Seed overrides the service-wide root seed (0 keeps the default).
	Seed int64 `json:"seed,omitempty"`
	// TrainYears is the training window before the final simulated year
	// (default 3).
	TrainYears int `json:"train_years,omitempty"`
	// Optional training overrides (0 keeps the park preset's values). Each
	// has a cap, and a larger value is a bad request: thresholds 40,
	// members 20 and cv_folds 6.
	Thresholds int `json:"thresholds,omitempty"`
	Members    int `json:"members,omitempty"`
	CVFolds    int `json:"cv_folds,omitempty"`
	// TimeoutMS bounds the job's runtime (0 = unbounded).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Caps on the training overrides of train and table2 jobs. Bagging
// allocates and draws one bag per member, and iWare-E fits one ensemble per
// threshold and CV fold, so without caps a body of a few bytes could ask for
// gigabytes, and running out of memory kills the replica where recover
// cannot. Each cap is at least twice the largest value an in-repo caller
// passes: 20 thresholds (the Uganda presets), 10 members (the default), 3
// CV folds, all six kinds and three test years (Table II).
const (
	maxTrainThresholds = 40
	maxTrainMembers    = 20
	maxTrainCVFolds    = 6
	maxTable2Kinds     = 12
	maxTable2TestYears = 6
)

// TrainJobResponse reports the registered model and its held-out quality.
type TrainJobResponse struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	Park        string  `json:"park"`
	Scale       string  `json:"scale"`
	TestYear    int     `json:"test_year"`
	TrainPoints int     `json:"train_points"`
	AUC         float64 `json:"auc"`
	FeatureDim  int     `json:"feature_dim"`
	Generation  uint64  `json:"generation"`
	// Hash and StoreGeneration identify the published artifact in the shared
	// fleet store (set only when the server has a store attached).
	Hash            string `json:"hash,omitempty"`
	StoreGeneration uint64 `json:"store_generation,omitempty"`
}

// trainFn validates a train request and lowers it to a job function.
func (s *Server) trainFn(req TrainJobRequest) (job.Fn, error) {
	if req.Name == "" {
		return nil, errors.New("train job needs a model name to register under")
	}
	if err := checkLimits(
		limit{"thresholds", float64(req.Thresholds), maxTrainThresholds},
		limit{"members", float64(req.Members), maxTrainMembers},
		limit{"cv_folds", float64(req.CVFolds), maxTrainCVFolds},
	); err != nil {
		return nil, err
	}
	park := req.Park
	if park == "" {
		park = "MFNP"
	}
	if err := paws.ValidateParkSpec(park); err != nil {
		return nil, err
	}
	scaleStr := req.Scale
	if scaleStr == "" {
		scaleStr = "small"
	}
	scale, err := paws.ParseScale(scaleStr)
	if err != nil {
		return nil, err
	}
	kindStr := req.Kind
	if kindStr == "" {
		kindStr = "DTB-iW"
	}
	kind, err := paws.ParseModelKind(kindStr)
	if err != nil {
		return nil, err
	}
	trainYears := req.TrainYears
	if trainYears <= 0 {
		trainYears = 3
	}
	return func(ctx context.Context, publish func(job.Event)) (any, error) {
		opts := []paws.Option{paws.WithKind(kind)}
		if req.Seed != 0 {
			opts = append(opts, paws.WithSeed(req.Seed))
		}
		opts = append(opts, paws.WithPreset(park, scale))
		if req.Thresholds > 0 {
			opts = append(opts, paws.WithThresholds(req.Thresholds))
		}
		if req.Members > 0 {
			opts = append(opts, paws.WithEnsembleSize(req.Members))
		}
		if req.CVFolds > 0 {
			opts = append(opts, paws.WithCVFolds(req.CVFolds))
		}
		opts = append(opts, paws.WithProgress(progressPublisher(publish)))
		sc, err := s.svc.Scenario(ctx, park, opts...)
		if err != nil {
			return nil, err
		}
		testYear := sc.Data.Steps[len(sc.Data.Steps)-1].Year
		split, err := sc.Data.SplitByTestYear(testYear, trainYears)
		if err != nil {
			return nil, err
		}
		m, err := s.svc.Train(ctx, split.Train, opts...)
		if err != nil {
			return nil, err
		}
		testFrom, _ := sc.Data.StepsForYear(testYear)
		sm, err := s.svc.AddModel(ctx, req.Name, m, sc.Data, testFrom-1, opts...)
		if err != nil {
			return nil, err
		}
		resp := TrainJobResponse{
			Name:        req.Name,
			Kind:        kind.String(),
			Park:        park,
			Scale:       scaleStr,
			TestYear:    testYear,
			TrainPoints: len(split.Train),
			AUC:         m.AUC(split.Test),
			FeatureDim:  sm.FeatureDim(),
			Generation:  sm.Generation(),
		}
		// In a fleet, a train job's contract includes publication: the model
		// reaches the shared store (with the seed that regenerates its
		// serving context) so every peer replica picks it up on its next
		// sync poll. A publish failure fails the job — a model only this
		// replica can serve would silently break "any replica answers any
		// model".
		if s.svc.ModelStore() != nil {
			seed := req.Seed
			if seed == 0 {
				seed = s.svc.DefaultSeed()
			}
			entry, err := s.svc.PublishModel(req.Name, paws.StoreMeta{Park: park, Scale: scaleStr, Seed: seed})
			if err != nil {
				return nil, fmt.Errorf("model %q trained but not published to the fleet store: %w", req.Name, err)
			}
			publish(job.Event{Stage: "publish", Item: entry.Hash, Current: 1, Total: 1})
			resp.Hash = entry.Hash
			resp.StoreGeneration = entry.Generation
		}
		return resp, nil
	}, nil
}

// Table2JobRequest asks for a Table II AUC sweep on one park.
type Table2JobRequest struct {
	// Park is a park spec (default MFNP); Scale is "small" or "full"
	// (default small).
	Park  string `json:"park,omitempty"`
	Scale string `json:"scale,omitempty"`
	// Kinds restricts the model variants (default: all six; at most 12
	// entries).
	Kinds []string `json:"kinds,omitempty"`
	// TestYears restricts the calendar test years (default: last three; at
	// most 6 entries).
	TestYears []int `json:"test_years,omitempty"`
	// Seed overrides the service-wide root seed (0 keeps the default).
	Seed int64 `json:"seed,omitempty"`
	// Optional training overrides. Thresholds and Members have the caps of
	// TrainJobRequest's: 40 and 20.
	TrainYears int `json:"train_years,omitempty"`
	Thresholds int `json:"thresholds,omitempty"`
	Members    int `json:"members,omitempty"`
	TimeoutMS  int `json:"timeout_ms,omitempty"`
}

// Table2JobRow is one (park, test-year, model) AUC entry.
type Table2JobRow struct {
	Park     string  `json:"park"`
	TestYear int     `json:"test_year"`
	Kind     string  `json:"kind"`
	AUC      float64 `json:"auc"`
}

// Table2JobResponse carries the sweep rows in deterministic order.
type Table2JobResponse struct {
	Park string         `json:"park"`
	Rows []Table2JobRow `json:"rows"`
}

// table2Fn validates a table2 request and lowers it to a job function.
func (s *Server) table2Fn(req Table2JobRequest) (job.Fn, error) {
	park := req.Park
	if park == "" {
		park = "MFNP"
	}
	if err := paws.ValidateParkSpec(park); err != nil {
		return nil, err
	}
	scaleStr := req.Scale
	if scaleStr == "" {
		scaleStr = "small"
	}
	scale, err := paws.ParseScale(scaleStr)
	if err != nil {
		return nil, err
	}
	if err := checkLimits(
		limit{"thresholds", float64(req.Thresholds), maxTrainThresholds},
		limit{"members", float64(req.Members), maxTrainMembers},
		limit{"number of kinds", float64(len(req.Kinds)), maxTable2Kinds},
		limit{"number of test_years", float64(len(req.TestYears)), maxTable2TestYears},
	); err != nil {
		return nil, err
	}
	kinds := make([]paws.ModelKind, 0, len(req.Kinds))
	for _, ks := range req.Kinds {
		k, err := paws.ParseModelKind(ks)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	return func(ctx context.Context, publish func(job.Event)) (any, error) {
		opts := []paws.Option{paws.WithScale(scale)}
		if req.Seed != 0 {
			opts = append(opts, paws.WithSeed(req.Seed))
		}
		if len(kinds) > 0 {
			opts = append(opts, paws.WithKinds(kinds...))
		}
		if len(req.TestYears) > 0 {
			opts = append(opts, paws.WithTestYears(req.TestYears...))
		}
		if req.TrainYears > 0 {
			opts = append(opts, paws.WithTrainYears(req.TrainYears))
		}
		if req.Thresholds > 0 {
			opts = append(opts, paws.WithThresholds(req.Thresholds))
		}
		if req.Members > 0 {
			opts = append(opts, paws.WithEnsembleSize(req.Members))
		}
		opts = append(opts, paws.WithProgress(progressPublisher(publish)))
		sc, err := s.svc.Scenario(ctx, park, opts...)
		if err != nil {
			return nil, err
		}
		rows, err := s.svc.Table2(ctx, sc, park, opts...)
		if err != nil {
			return nil, err
		}
		paws.SortTable2Rows(rows)
		resp := Table2JobResponse{Park: park, Rows: make([]Table2JobRow, 0, len(rows))}
		for _, row := range rows {
			resp.Rows = append(resp.Rows, Table2JobRow{
				Park: row.Park, TestYear: row.TestYear, Kind: row.Kind.String(), AUC: row.AUC,
			})
		}
		return resp, nil
	}, nil
}

// CampaignJobRequest asks for a multi-scenario campaign: a grid of parks ×
// replicate seeds × season counts, every cell a closed-loop simulation
// comparing the same policies under common random numbers, aggregated into
// paired per-park policy deltas with bootstrap confidence intervals.
type CampaignJobRequest struct {
	// Parks are park specs; procedural ranges "rand:<lo>-<hi>" expand to
	// one park per seed (default MFNP).
	Parks []string `json:"parks,omitempty"`
	// Policies are compared inside every cell (default paws,uniform).
	Policies []string `json:"policies,omitempty"`
	// Seeds are the replicate seeds (default 1,2,3).
	Seeds []int64 `json:"seeds,omitempty"`
	// SeasonCounts are the season-count grid values (default 4).
	SeasonCounts []int `json:"season_counts,omitempty"`
	// SeasonMonths is the months per season (default 3, capped at 12).
	SeasonMonths int `json:"season_months,omitempty"`
	// Attacker is "static" or "adaptive" (default adaptive).
	Attacker string `json:"attacker,omitempty"`
	// Beta is the paws policy's robustness weight (default 0.9).
	Beta float64 `json:"beta,omitempty"`
	// BudgetKM overrides the per-month patrol budget.
	BudgetKM float64 `json:"budget_km,omitempty"`
	// Baseline anchors the paired deltas (default "uniform" when present).
	Baseline string `json:"baseline,omitempty"`
	// Resamples is the bootstrap resample count (default 2000).
	Resamples int `json:"resamples,omitempty"`
	// TimeoutMS bounds the job's runtime (0 = unbounded).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// CampaignResponse is the campaign report plus the deterministic
// fixed-width text rendering pawscamp prints.
type CampaignResponse struct {
	*campaign.Report
	Text string `json:"text"`
}

// Campaign grids multiply simulation work, so their size is bounded
// server-side: the cell count cap dominates (a cell is a full closed-loop
// simulation), the rest keep single dimensions sane.
const (
	maxCampaignParks = 8
	maxCampaignSeeds = 16
	maxCampaignCells = 64
	maxResamples     = 100_000
)

// campaignFn validates a campaign request and lowers it to a job function.
// Park ranges are expanded, every grid dimension checked against the
// server-side caps, and the full campaign validation (spec validity,
// duplicate seeds/policies, season counts, baseline membership, attacker
// kind, beta range) run at submit time, so a malformed grid fails fast
// with a structured 400 instead of a doomed job.
func (s *Server) campaignFn(req CampaignJobRequest) (job.Fn, error) {
	parks := req.Parks
	if len(parks) == 0 {
		parks = []string{"MFNP"}
	}
	expanded, err := campaign.ExpandParks(parks)
	if err != nil {
		return nil, err
	}
	if len(expanded) > maxCampaignParks {
		return nil, fmt.Errorf("%d parks exceed the limit of %d", len(expanded), maxCampaignParks)
	}
	if len(req.Seeds) > maxCampaignSeeds {
		return nil, fmt.Errorf("%d seeds exceed the limit of %d", len(req.Seeds), maxCampaignSeeds)
	}
	if err := checkSimSize(req.SeasonCounts, req.SeasonMonths, 0, len(req.Policies)); err != nil {
		return nil, err
	}
	if req.Resamples > maxResamples {
		return nil, fmt.Errorf("resamples %d exceeds the limit of %d", req.Resamples, maxResamples)
	}
	cfg := paws.CampaignConfig{
		Parks:        expanded,
		Policies:     req.Policies,
		Seeds:        req.Seeds,
		SeasonCounts: req.SeasonCounts,
		SeasonMonths: req.SeasonMonths,
		BudgetKM:     req.BudgetKM,
		Beta:         req.Beta,
		Baseline:     req.Baseline,
		Resamples:    req.Resamples,
		Attacker:     req.Attacker,
	}
	// One library call does the full validation and yields the cell count
	// of the defaults-filled grid Campaign would actually run, so the cap
	// cannot drift from the library's defaults.
	cells, err := cfg.GridSize()
	if err != nil {
		return nil, err
	}
	if cells > maxCampaignCells {
		return nil, fmt.Errorf("campaign grid of %d cells exceeds the limit of %d", cells, maxCampaignCells)
	}
	return func(ctx context.Context, publish func(job.Event)) (any, error) {
		rep, err := s.svc.Campaign(ctx, cfg, paws.WithProgress(progressPublisher(publish)))
		if err != nil {
			return nil, err
		}
		return CampaignResponse{Report: rep, Text: rep.Format()}, nil
	}, nil
}

// riskmapFn validates a riskmap request (including that the model is
// registered — the registry is available at submit time) and lowers it to
// a job function that shares computeRiskMap (and its LRU) with the
// synchronous endpoint. Its result is the endpoint's encoded body, which
// the result endpoint's encoder writes back unchanged.
func (s *Server) riskmapFn(req RiskMapRequest) (job.Fn, error) {
	req, _, err := s.checkRiskMap(req)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, publish func(job.Event)) (any, error) {
		body, err := s.computeRiskMap(ctx, req)
		if err != nil {
			return nil, err
		}
		publish(job.Event{Stage: "map", Item: req.Model, Current: 1, Total: 1})
		return json.RawMessage(body), nil
	}, nil
}

// ---------------------------------------------------------- job endpoints

// JobSubmitRequest submits one job: Kind selects which parameter block
// applies (a nil block uses that kind's defaults).
type JobSubmitRequest struct {
	// Kind is one of "simulate", "campaign", "train", "table2", "riskmap".
	Kind     string              `json:"kind"`
	Simulate *SimulateRequest    `json:"simulate,omitempty"`
	Campaign *CampaignJobRequest `json:"campaign,omitempty"`
	Train    *TrainJobRequest    `json:"train,omitempty"`
	Table2   *Table2JobRequest   `json:"table2,omitempty"`
	RiskMap  *RiskMapRequest     `json:"riskmap,omitempty"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	// Shed load before spending any work on the request: an overloaded
	// replica answers 429 + Retry-After instead of queueing minutes of
	// backlog it cannot serve in time.
	if err := s.admitJob(); err != nil {
		writeErr(w, err)
		return
	}
	var req JobSubmitRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	var fn job.Fn
	var err error
	var timeoutMS int
	switch req.Kind {
	case "simulate":
		var p SimulateRequest
		if req.Simulate != nil {
			p = *req.Simulate
		}
		fn, err = s.simulateFn(p)
		timeoutMS = p.TimeoutMS
	case "campaign":
		var p CampaignJobRequest
		if req.Campaign != nil {
			p = *req.Campaign
		}
		fn, err = s.campaignFn(p)
		timeoutMS = p.TimeoutMS
	case "train":
		var p TrainJobRequest
		if req.Train != nil {
			p = *req.Train
		}
		fn, err = s.trainFn(p)
		timeoutMS = p.TimeoutMS
	case "table2":
		var p Table2JobRequest
		if req.Table2 != nil {
			p = *req.Table2
		}
		fn, err = s.table2Fn(p)
		timeoutMS = p.TimeoutMS
	case "riskmap":
		var p RiskMapRequest
		if req.RiskMap != nil {
			p = *req.RiskMap
		}
		fn, err = s.riskmapFn(p)
		timeoutMS = p.TimeoutMS
	default:
		err = fmt.Errorf("unknown job kind %q (want simulate, campaign, train, table2 or riskmap)", req.Kind)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	snap, err := s.jobs.Submit(req.Kind, s.traceJobFn(r, req.Kind, withTimeout(fn, timeoutMS)))
	if err != nil {
		writeErr(w, err)
		return
	}
	s.metrics.jobsSubmit.With(req.Kind).Inc()
	writeJSON(w, http.StatusAccepted, snap)
}

type jobListResponse struct {
	Jobs []job.Snapshot `json:"jobs"`
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, jobListResponse{Jobs: s.jobs.List()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	result, _, err := s.jobs.Result(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, result)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleJobEvents streams a job's progress events as NDJSON: one JSON
// event per line, replayed from ?from=N (default 0) and then followed
// live until the job reaches a terminal state. The stream is safe on
// client disconnect — the handler returns, the job keeps running, and a
// reconnecting client resumes from any sequence number.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, fmt.Errorf("invalid from %q", v))
			return
		}
		from = n
	}
	// Fail before committing to a stream if the job does not exist.
	if _, err := s.jobs.Get(id); err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	for {
		evs, state, ch, err := s.jobs.EventsSince(id, from)
		if err != nil {
			// Evicted mid-stream: nothing more will ever arrive.
			return
		}
		if len(evs) > 0 {
			for _, e := range evs {
				if writeNDJSONLine(w, e) != nil {
					return // client gone; the job keeps running
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
			from += len(evs)
		}
		if state.Terminal() {
			if len(evs) == 0 {
				return
			}
			continue // drain whatever arrived with the terminal transition
		}
		select {
		case <-r.Context().Done():
			return // client gone; the job keeps running
		case <-ch:
		}
	}
}

// writeNDJSONLine encodes one event as a JSON line.
func writeNDJSONLine(w http.ResponseWriter, e job.Event) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
