package env

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// This file is the session layer behind POST /v1/envs: a Manager retains
// live environments by ID so a remote learner can step one episode across
// many HTTP requests. It follows internal/job's lifecycle conventions —
// replica-prefixed IDs ("e-<replica>-000001"), lazy TTL + LRU retention
// with a fake-clock test hook, drain-aware lookups (a miss during shutdown
// is "shutting down", not "unknown"), and a graceful Shutdown that waits
// for in-flight steps.

// Sentinel errors of the Manager API.
var (
	// ErrUnknownSession is returned for IDs that never existed or were
	// already evicted (idle TTL, LRU bound, or explicit delete).
	ErrUnknownSession = errors.New("env: unknown session")
	// ErrShuttingDown is returned by Create after Shutdown began.
	ErrShuttingDown = errors.New("env: manager is shutting down")
	// ErrCapacity is returned by Create when MaxSessions live sessions are
	// already retained; the HTTP layer renders it as 429 + Retry-After.
	ErrCapacity = errors.New("env: session capacity reached")
)

// ManagerConfig tunes a Manager.
type ManagerConfig struct {
	// TTL evicts sessions idle (no step/get) longer than this; 0 selects
	// the 15-minute default, negative disables TTL eviction. Eviction
	// happens lazily on Manager calls.
	TTL time.Duration
	// MaxSessions bounds retained sessions (0 selects the default of 64).
	// At the bound, finished (done) sessions are LRU-evicted to make room;
	// if every retained session is still live, Create fails with
	// ErrCapacity.
	MaxSessions int
	// IDPrefix namespaces session IDs ("e-<prefix>-000001" instead of
	// "e-000001"), mirroring job.Config.IDPrefix: in a fleet every replica
	// sets a distinct prefix so the routing proxy can tell whose session an
	// ID names.
	IDPrefix string
	// now is a test hook for TTL eviction; nil means time.Now.
	now func() time.Time
}

// Snapshot is a point-in-time view of a session, safe to serialize.
type Snapshot struct {
	ID string `json:"id"`
	// Park is the park's name (not its spec — the name the report prints).
	Park string `json:"park"`
	// Season is the next season index Step will execute (== seasons
	// completed); Seasons is the episode length.
	Season  int `json:"season"`
	Seasons int `json:"seasons"`
	// Months is the total observed months (bootstrap + stepped).
	Months   int       `json:"months"`
	Done     bool      `json:"done"`
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"last_used"`
}

// Stats is a point-in-time load summary of a Manager — the env slice of
// /statusz, which the gate's env-session routing scores replicas by.
type Stats struct {
	// Active is the number of retained sessions whose episode is not done.
	Active int `json:"active"`
	// Sessions is the total retained (live + finished-but-not-evicted).
	Sessions int `json:"sessions"`
	// Created counts sessions created over the Manager's lifetime.
	Created int64 `json:"created"`
	// Steps counts seasons stepped over the Manager's lifetime.
	Steps int64 `json:"steps"`
}

// session is the Manager's record of one environment. The Manager lock
// guards the map and the bookkeeping fields; the per-session mutex
// serializes Step/Reset compute so concurrent requests against one ID
// execute in some serial order instead of racing the Env. Step takes the
// Manager lock inside the session mutex, never the other way round.
type session struct {
	id      string
	env     *Env
	created time.Time

	mu sync.Mutex // serializes env access

	// Guarded by the Manager lock. season, months and done copy the Env's
	// state after its latest step, so readers under the Manager lock never
	// touch the Env while a step mutates it.
	lastUsed time.Time
	season   int
	months   int
	done     bool
}

// Manager retains stepped environments by ID. All methods are safe for
// concurrent use.
type Manager struct {
	cfg ManagerConfig

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int
	closed   bool
	created  int64
	steps    int64
	inflight sync.WaitGroup // steps in progress, awaited by Shutdown
}

// NewManager builds a Manager.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.TTL == 0 {
		cfg.TTL = 15 * time.Minute
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Manager{cfg: cfg, sessions: map[string]*session{}}
}

// Create retains a fresh environment and returns its session snapshot. The
// Env must be newly built (Reset) and is owned by the Manager afterwards.
func (m *Manager) Create(e *Env) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Snapshot{}, ErrShuttingDown
	}
	m.evictLocked()
	if len(m.sessions) >= m.cfg.MaxSessions {
		// Make room by retiring finished episodes before shedding.
		m.evictDoneLocked(len(m.sessions) - m.cfg.MaxSessions + 1)
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		return Snapshot{}, fmt.Errorf("%w (%d sessions retained, max %d)", ErrCapacity, len(m.sessions), m.cfg.MaxSessions)
	}
	m.nextID++
	id := fmt.Sprintf("e-%06d", m.nextID)
	if m.cfg.IDPrefix != "" {
		id = fmt.Sprintf("e-%s-%06d", m.cfg.IDPrefix, m.nextID)
	}
	now := m.cfg.now()
	s := &session{id: id, env: e, created: now, lastUsed: now,
		season: e.Season(), months: e.Months(), done: e.Done()}
	m.sessions[id] = s
	m.created++
	return m.snapshotLocked(s), nil
}

// lookupLocked resolves a session ID; callers hold the lock. A miss while
// the Manager is draining reports ErrShuttingDown, not ErrUnknownSession:
// during shutdown sessions are being dropped while clients may still hold
// valid IDs, and telling such a client its session "never existed" is
// wrong — the honest answer is that the server is going away. (This is the
// same drain-vs-unknown distinction the job manager makes.)
func (m *Manager) lookupLocked(id string) (*session, error) {
	if s, ok := m.sessions[id]; ok {
		return s, nil
	}
	if m.closed {
		return nil, fmt.Errorf("%w (session %q unknown or already drained)", ErrShuttingDown, id)
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownSession, id)
}

// snapshotLocked builds a Snapshot; callers hold the Manager lock. It reads
// the session's copy of the Env state, which lags only while a step is in
// flight, and the Env's immutable Config.
func (m *Manager) snapshotLocked(s *session) Snapshot {
	return Snapshot{
		ID:       s.id,
		Park:     s.env.Config().Park.Name,
		Season:   s.season,
		Seasons:  s.env.Config().Seasons,
		Months:   s.months,
		Done:     s.done,
		Created:  s.created,
		LastUsed: s.lastUsed,
	}
}

// Get returns a session's snapshot and refreshes its idle clock.
func (m *Manager) Get(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictLocked()
	s, err := m.lookupLocked(id)
	if err != nil {
		return Snapshot{}, err
	}
	s.lastUsed = m.cfg.now()
	return m.snapshotLocked(s), nil
}

// Step executes one season on a session. Concurrent steps on one session
// serialize on its mutex; the Manager lock is not held during compute, so
// one long step never blocks other sessions. Stepping a finished episode
// returns ErrDone (the Env's own error), an evicted or never-created ID
// returns ErrUnknownSession.
func (m *Manager) Step(ctx context.Context, id string, effort []float64) (*Obs, SeasonStats, bool, error) {
	m.mu.Lock()
	m.evictLocked()
	s, err := m.lookupLocked(id)
	if err != nil {
		m.mu.Unlock()
		return nil, SeasonStats{}, false, err
	}
	s.lastUsed = m.cfg.now()
	m.inflight.Add(1)
	m.mu.Unlock()
	defer m.inflight.Done()

	s.mu.Lock()
	o, st, done, err := s.env.Step(ctx, effort)
	// Copy the Env state before releasing the session, so a step that
	// finished earlier cannot overwrite a later one's copy.
	m.mu.Lock()
	s.lastUsed = m.cfg.now()
	s.season, s.months, s.done = s.env.Season(), s.env.Months(), s.env.Done()
	if err == nil {
		m.steps++
	}
	m.mu.Unlock()
	s.mu.Unlock()
	return o, st, done, err
}

// Remove drops a session (any state — unlike jobs, a live episode is the
// caller's to abandon).
func (m *Manager) Remove(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, err := m.lookupLocked(id)
	if err != nil {
		return Snapshot{}, err
	}
	snap := m.snapshotLocked(s)
	delete(m.sessions, id)
	return snap, nil
}

// Stats returns the Manager's current load summary.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictLocked()
	st := Stats{Sessions: len(m.sessions), Created: m.created, Steps: m.steps}
	for _, s := range m.sessions {
		if !s.done {
			st.Active++
		}
	}
	return st
}

// RetryAfter estimates when a shed Create is worth retrying: the soonest
// idle-TTL expiry among retained sessions (clamped to ≥ 1s), or 1s when TTL
// eviction is disabled.
func (m *Manager) RetryAfter() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.TTL <= 0 || len(m.sessions) == 0 {
		return time.Second
	}
	now := m.cfg.now()
	soonest := m.cfg.TTL
	for _, s := range m.sessions {
		if d := s.lastUsed.Add(m.cfg.TTL).Sub(now); d < soonest {
			soonest = d
		}
	}
	if soonest < time.Second {
		soonest = time.Second
	}
	return soonest
}

// Shutdown stops new sessions, waits for in-flight steps to finish (or ctx
// to expire), then drops every session. Unlike jobs, sessions hold no
// queued work to drain — an episode's remaining seasons simply never get
// stepped — so shutdown is bounded by the single step in flight per
// session.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()

	doneCh := make(chan struct{})
	go func() {
		m.inflight.Wait()
		close(doneCh)
	}()
	var err error
	select {
	case <-doneCh:
	case <-ctx.Done():
		err = ctx.Err()
	}
	m.mu.Lock()
	m.sessions = map[string]*session{}
	m.mu.Unlock()
	return err
}

// evictLocked applies retention lazily: sessions idle past the TTL go
// first (live or done — an abandoned episode must not pin memory forever),
// then finished sessions beyond MaxSessions, oldest-idle first. Live
// sessions are never LRU-evicted; Create sheds instead (ErrCapacity).
// Callers hold the lock.
func (m *Manager) evictLocked() {
	now := m.cfg.now()
	for id, s := range m.sessions {
		if m.cfg.TTL > 0 && now.Sub(s.lastUsed) > m.cfg.TTL {
			delete(m.sessions, id)
		}
	}
	m.evictDoneLocked(len(m.sessions) - m.cfg.MaxSessions)
}

// evictDoneLocked drops up to k finished sessions, oldest idle first (ID
// ascending on ties). Callers hold the lock.
func (m *Manager) evictDoneLocked(k int) {
	if k <= 0 {
		return
	}
	var done []*session
	for _, s := range m.sessions {
		if s.done {
			done = append(done, s)
		}
	}
	// IDs are unique, so this order is total.
	slices.SortFunc(done, func(a, b *session) int {
		if c := a.lastUsed.Compare(b.lastUsed); c != 0 {
			return c
		}
		return strings.Compare(a.id, b.id)
	})
	for _, s := range done {
		if k <= 0 {
			break
		}
		delete(m.sessions, s.id)
		k--
	}
}
