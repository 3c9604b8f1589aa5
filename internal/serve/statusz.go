package serve

import (
	"fmt"
	"net/http"
	"time"

	"paws/internal/env"
	"paws/internal/job"
)

// This file is the fleet-facing half of the server: GET /statusz, the
// lightweight load report pawsgate polls for least-loaded job routing, and
// the admission-control gate that sheds job submissions once the estimated
// backlog exceeds the configured budget.

// AdmissionStatus reports the admission-control state inside /statusz.
type AdmissionStatus struct {
	// BudgetSeconds is the configured backlog budget (0 = disabled).
	BudgetSeconds float64 `json:"budget_seconds"`
	// BacklogSeconds is the current estimate: (queued + running) × mean job
	// runtime.
	BacklogSeconds float64 `json:"backlog_seconds"`
	// MaxQueue is the configured queue-depth bound (0 = disabled).
	MaxQueue int `json:"max_queue"`
	// Overloaded reports whether a job submission arriving now would be
	// rejected with 429.
	Overloaded bool `json:"overloaded"`
}

// StatuszResponse is the /statusz payload: enough signal for a routing
// proxy to pick a replica (load, admission state) and for an operator to
// see what the replica is doing (models, cache effectiveness).
type StatuszResponse struct {
	// Replica is Config.ReplicaID ("" in a single-process deployment).
	Replica string `json:"replica"`
	// Models is the number of registered models.
	Models int `json:"models"`
	// Jobs is the job manager's load summary.
	Jobs job.Stats `json:"jobs"`
	// Envs is the env session manager's load summary — the signal
	// pawsgate's least-loaded env-create routing scores replicas by.
	Envs env.Stats `json:"envs"`
	// Admission is the admission-control state.
	Admission AdmissionStatus `json:"admission"`
	// RiskMapCache reports the riskmap LRU's size and lifetime hit/miss
	// counts — the measurement behind affinity-vs-round-robin comparisons.
	RiskMapCache cacheStats `json:"riskmap_cache"`
}

// Statusz builds the current status report.
func (s *Server) Statusz() StatuszResponse {
	st := s.jobs.Stats()
	backlog := backlogEstimate(st)
	return StatuszResponse{
		Replica: s.cfg.ReplicaID,
		Models:  len(s.svc.ModelNames()),
		Jobs:    st,
		Envs:    s.envs.Stats(),
		Admission: AdmissionStatus{
			BudgetSeconds:  s.cfg.AdmissionBudget.Seconds(),
			BacklogSeconds: backlog.Seconds(),
			MaxQueue:       s.cfg.AdmissionMaxQueue,
			Overloaded:     s.admissionCheck(st) != nil,
		},
		RiskMapCache: s.cache.stats(),
	}
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Statusz())
}

// StatuszHandler returns a standalone handler for the status report, so
// pawsd can also expose /statusz on its debug (pprof) listener.
func (s *Server) StatuszHandler() http.Handler { return http.HandlerFunc(s.handleStatusz) }

// backlogEstimate is the admission-control signal: how much job work is
// already committed, assuming every queued and running job costs the
// observed mean runtime.
func backlogEstimate(st job.Stats) time.Duration {
	return time.Duration(float64(st.Queued+st.Running) * st.MeanJobSeconds * float64(time.Second))
}

// admissionCheck decides whether a job submission arriving now is
// admitted. nil admits; otherwise the returned *overloadedError renders as
// a structured 429 with Retry-After.
func (s *Server) admissionCheck(st job.Stats) error {
	if s.cfg.AdmissionMaxQueue > 0 && st.Queued >= s.cfg.AdmissionMaxQueue {
		// Retry once roughly one job's worth of queue has drained.
		wait := time.Duration(st.MeanJobSeconds * float64(time.Second))
		return &overloadedError{
			retryAfter: wait,
			msg: fmt.Sprintf("replica %s: %d jobs queued (max %d)",
				replicaLabel(s.cfg.ReplicaID), st.Queued, s.cfg.AdmissionMaxQueue),
		}
	}
	if s.cfg.AdmissionBudget > 0 {
		backlog := backlogEstimate(st)
		if backlog > s.cfg.AdmissionBudget {
			// Retry once the excess over the budget should have drained.
			return &overloadedError{
				retryAfter: backlog - s.cfg.AdmissionBudget,
				msg: fmt.Sprintf("replica %s: estimated job backlog %.1fs exceeds the %.1fs budget",
					replicaLabel(s.cfg.ReplicaID), backlog.Seconds(), s.cfg.AdmissionBudget.Seconds()),
			}
		}
	}
	return nil
}

// admitJob snapshots the job stats and applies the admission gate; a
// rejection counts toward paws_jobs_shed_total (admissionCheck itself
// stays side-effect free — /statusz probes it for the Overloaded flag).
func (s *Server) admitJob() error {
	err := s.admissionCheck(s.jobs.Stats())
	if err != nil {
		s.metrics.jobsShed.Inc()
	}
	return err
}

// replicaLabel renders a replica ID for error messages.
func replicaLabel(id string) string {
	if id == "" {
		return "(default)"
	}
	return id
}
