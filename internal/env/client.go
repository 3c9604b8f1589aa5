package env

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"paws/internal/geo"
	"paws/internal/poach"
)

// Client is a remote environment session: a Stepper over internal/serve's
// /v1/envs endpoints. It accretes the observed record locally from the
// create response and per-step deltas, so every Step returns a complete Obs
// without re-shipping the whole history — and env.Drive plays a policy
// against it exactly as it would against a local Env, byte-identically for
// the same park, seed and budget.
//
// The park is injected, not fetched: the server resolves the spec in
// Req.Park at its default scale, and the caller must supply the identical
// *geo.Park (the root package's SimulateRemote resolves it the same way the
// local Simulate does). A Client is not safe for concurrent use.
type Client struct {
	baseURL string
	http    *http.Client
	park    *geo.Park
	req     CreateRequest

	id string
	// Local copy of the observed record, accreted from wire messages.
	months       int
	effort       [][]float64
	detections   [][]bool
	observations []poach.Observation
	budgetKM     float64
}

// NewClient builds a remote session handle. baseURL addresses pawsd or
// pawsgate ("http://host:port"); hc nil selects http.DefaultClient; park
// must be the caller's resolution of req.Park. No request is made until
// Reset.
func NewClient(baseURL string, hc *http.Client, park *geo.Park, req CreateRequest) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{baseURL: strings.TrimRight(baseURL, "/"), http: hc, park: park, req: req}
}

// RemoteError is a structured error envelope decoded from a non-2xx
// response: the server's machine-readable code plus the HTTP status.
type RemoteError struct {
	Status  int
	Code    string
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("env: remote %s (%d %s)", e.Message, e.Status, e.Code)
}

// decodeError turns a non-2xx response into a *RemoteError, falling back to
// the raw body when it is not a structured envelope.
func decodeError(resp *http.Response, body []byte) error {
	var envl struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &envl); err == nil && envl.Error.Code != "" {
		return &RemoteError{Status: resp.StatusCode, Code: envl.Error.Code, Message: envl.Error.Message}
	}
	return &RemoteError{Status: resp.StatusCode, Code: "unknown", Message: strings.TrimSpace(string(body))}
}

// do issues one JSON round-trip and decodes a 2xx body into out.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("env: encode %s %s: %w", method, path, err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, body)
	if err != nil {
		return fmt.Errorf("env: build %s %s: %w", method, path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("env: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("env: read %s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return decodeError(resp, raw)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("env: decode %s %s: %w", method, path, err)
	}
	return nil
}

// accrete replaces (full message) or appends (delta) the local record. The
// message is checked against the record and the park first, and a message
// that fails leaves the record as it was: a policy indexes the record by
// month and cell, so a malformed reply must surface as an error, not a
// panic in the planner.
func (c *Client) accrete(w WireObs, full bool) error {
	prev := c.months
	if full {
		prev = 0
	}
	cells := c.park.Grid.NumCells()
	if len(w.Effort) != len(w.Detections) || w.Months != prev+len(w.Effort) {
		return fmt.Errorf("env: malformed observation: %d months after %d, with %d effort and %d detection rows",
			w.Months, prev, len(w.Effort), len(w.Detections))
	}
	for i := range w.Effort {
		if len(w.Effort[i]) != cells || len(w.Detections[i]) != cells {
			return fmt.Errorf("env: malformed observation: month %d has %d effort and %d detection cells, park has %d",
				prev+i, len(w.Effort[i]), len(w.Detections[i]), cells)
		}
	}
	for _, o := range w.Observations {
		if o.CellID < 0 || o.CellID >= cells || o.Month < 0 || o.Month >= w.Months {
			return fmt.Errorf("env: malformed observation: cell %d month %d outside %d cells × %d months",
				o.CellID, o.Month, cells, w.Months)
		}
	}
	if full {
		c.effort = c.effort[:0]
		c.detections = c.detections[:0]
		c.observations = c.observations[:0]
	}
	c.effort = append(c.effort, w.Effort...)
	c.detections = append(c.detections, w.Detections...)
	for _, o := range w.Observations {
		c.observations = append(c.observations, poach.Observation{Month: o.Month, CellID: o.CellID, Poaching: o.Poaching})
	}
	c.months = w.Months
	c.budgetKM = w.BudgetKM
	return nil
}

// obs builds the current local observation.
func (c *Client) obs() *Obs {
	return &Obs{
		Park:         c.park,
		Months:       c.months,
		Effort:       c.effort,
		Detections:   c.detections,
		Observations: c.observations,
		BudgetKM:     c.budgetKM,
	}
}

// Reset starts a fresh episode by creating a new server session (deleting
// the previous one first, best-effort, if this Client already held one) and
// returns the initial observation.
func (c *Client) Reset(ctx context.Context) (*Obs, error) {
	if c.id != "" {
		_ = c.do(ctx, http.MethodDelete, "/v1/envs/"+c.id, nil, nil)
		c.id = ""
	}
	var resp CreateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/envs", c.req, &resp); err != nil {
		return nil, err
	}
	c.id = resp.Session.ID
	if err := c.accrete(resp.Obs, true); err != nil {
		return nil, fmt.Errorf("env: create session %s: %w", c.id, err)
	}
	return c.obs(), nil
}

// Step executes one season remotely and accretes the returned delta.
func (c *Client) Step(ctx context.Context, effort []float64) (*Obs, SeasonStats, bool, error) {
	if c.id == "" {
		return nil, SeasonStats{}, false, fmt.Errorf("env: client has no session (call Reset first)")
	}
	var resp StepResponse
	err := c.do(ctx, http.MethodPost, "/v1/envs/"+c.id+"/step", StepRequest{Effort: effort, TimeoutMS: c.req.TimeoutMS}, &resp)
	if err != nil {
		return nil, SeasonStats{}, false, err
	}
	if err := c.accrete(resp.Delta, false); err != nil {
		return nil, SeasonStats{}, false, fmt.Errorf("env: step session %s: %w", c.id, err)
	}
	return c.obs(), resp.Stats, resp.Done, nil
}

// Close deletes the server session, if any.
func (c *Client) Close(ctx context.Context) error {
	if c.id == "" {
		return nil
	}
	err := c.do(ctx, http.MethodDelete, "/v1/envs/"+c.id, nil, nil)
	c.id = ""
	return err
}
