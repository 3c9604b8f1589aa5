package serve

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"paws"
	"paws/internal/env"
	"paws/internal/obs"
)

// This file is the remote environment surface: stepped /v1/envs sessions
// over the env.Manager, mirroring the async-job conventions — structured
// error envelopes, replica-prefixed IDs the gate routes by, admission
// control with 429 + Retry-After, and drain-aware errors after Close.
//
//	POST   /v1/envs           — create a session (park spec, seed, seasons,
//	                            budget); returns the session + the full
//	                            bootstrap observation
//	POST   /v1/envs/{id}/step — execute one season of a per-cell effort
//	                            allocation; returns stats + the record delta
//	GET    /v1/envs/{id}      — session snapshot
//	DELETE /v1/envs/{id}      — drop the session
//
// The wire schema lives in internal/env (shared with the env.Client
// Stepper), so a remote episode is byte-identical to a local env.Env run.

func (s *Server) handleEnvCreate(w http.ResponseWriter, r *http.Request) {
	var req env.CreateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := checkSimSize([]int{req.Seasons}, req.SeasonMonths, req.BootstrapMonths, 0); err != nil {
		writeErr(w, err)
		return
	}
	cfg := paws.SimConfig{
		Park:            req.Park,
		Seasons:         req.Seasons,
		SeasonMonths:    req.SeasonMonths,
		BootstrapMonths: req.BootstrapMonths,
		BudgetKM:        req.BudgetKM,
		Attacker:        req.Attacker,
	}
	// NewEnv validates cfg in full before the (expensive) bootstrap, so a
	// typo'd request fails as a structured 400 up front. No request context
	// is threaded into the build: the bootstrap simulation is quick CPU work
	// bounded by the size check, and the session must outlive the create
	// request anyway (TimeoutMS still bounds the HTTP exchange client-side).
	var opts []paws.Option
	if req.Seed != 0 {
		opts = append(opts, paws.WithSeed(req.Seed))
	}
	e, err := s.svc.NewEnv(cfg, opts...)
	if err != nil {
		writeErr(w, err)
		return
	}
	snap, err := s.envs.Create(e)
	if err != nil {
		if errors.Is(err, env.ErrCapacity) {
			// Admission control: shed the session with a Retry-After hint
			// (the soonest idle-TTL expiry) instead of growing without bound.
			s.metrics.envsShed.Inc()
			err = &overloadedError{retryAfter: s.envs.RetryAfter(), msg: fmt.Sprintf(
				"replica %s: %v", replicaLabel(s.cfg.ReplicaID), err)}
		}
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, env.CreateResponse{Session: snap, Obs: env.FullWire(e.Obs())})
}

func (s *Server) handleEnvStep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req env.StepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	start := time.Now()
	endStep := obs.StartSpan(ctx, "step", id)
	o, stats, done, err := s.envs.Step(ctx, id, req.Effort)
	endStep()
	if err != nil {
		writeErr(w, err)
		return
	}
	s.metrics.envSteps.Observe(time.Since(start).Seconds())
	snap, err := s.envs.Get(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, env.StepResponse{
		Session: snap,
		Stats:   stats,
		Done:    done,
		Delta:   env.DeltaWire(o, stats.StartMonth),
	})
}

func (s *Server) handleEnvGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.envs.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleEnvDelete(w http.ResponseWriter, r *http.Request) {
	snap, err := s.envs.Remove(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, env.DeleteResponse{Session: snap})
}
