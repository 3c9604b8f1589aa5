package env

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"paws/internal/geo"
	"paws/internal/poach"
	"paws/internal/rng"
)

// cannedWire answers a Client from fixed bodies, with no sockets: create
// for POST /v1/envs, step for POST /v1/envs/{id}/step, and an empty 200 for
// anything else (the session deletes).
type cannedWire struct{ create, step []byte }

func (w cannedWire) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	body := []byte("{}")
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/envs":
		body = w.create
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/step"):
		body = w.step
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(body)),
		Request:    r,
	}, nil
}

// cannedClient is a Client on park whose server replies with create and step.
func cannedClient(park *geo.Park, create, step []byte) *Client {
	return NewClient("http://env.invalid", &http.Client{Transport: cannedWire{create, step}}, park, CreateRequest{Park: park.Name})
}

// wireFixture renders a real episode's wire messages, as the server sends
// them: the FullWire create response and the DeltaWire response of one
// uniform step. The park is small so fuzzed bodies stay short.
func wireFixture(tb testing.TB) (park *geo.Park, create, step []byte) {
	tb.Helper()
	parkCfg := geo.RandomConfigSized(16, geo.MinSizedCells)
	park, err := geo.GeneratePark(parkCfg)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(Config{
		Park:            park,
		Sim:             poach.RandomSim(parkCfg, 21),
		Attacker:        poach.AttackerAdaptive,
		Seasons:         2,
		SeasonMonths:    1,
		BootstrapMonths: 3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	create, err = json.Marshal(CreateResponse{Session: Snapshot{ID: "e-test"}, Obs: FullWire(e.Obs())})
	if err != nil {
		tb.Fatal(err)
	}
	o, stats, done, err := e.Step(context.Background(), uniformEffort(park.Grid.NumCells()))
	if err != nil {
		tb.Fatal(err)
	}
	step, err = json.Marshal(StepResponse{Stats: stats, Done: done, Delta: DeltaWire(o, stats.StartMonth)})
	if err != nil {
		tb.Fatal(err)
	}
	return park, create, step
}

// checkWireObs asserts the invariants a Client guarantees of every Obs it
// returns, then plans one season on it with the policies that index the
// record by month and cell.
func checkWireObs(t *testing.T, o *Obs) {
	t.Helper()
	cells := o.Park.Grid.NumCells()
	if len(o.Effort) != o.Months || len(o.Detections) != o.Months {
		t.Fatalf("obs: %d months, %d effort rows, %d detection rows", o.Months, len(o.Effort), len(o.Detections))
	}
	for m := range o.Effort {
		if len(o.Effort[m]) != cells || len(o.Detections[m]) != cells {
			t.Fatalf("obs month %d: %d effort and %d detection cells, park has %d", m, len(o.Effort[m]), len(o.Detections[m]), cells)
		}
	}
	for _, ob := range o.Observations {
		if ob.CellID < 0 || ob.CellID >= cells || ob.Month < 0 || ob.Month >= o.Months {
			t.Fatalf("obs: observation %+v outside %d cells × %d months", ob, cells, o.Months)
		}
	}
	for _, p := range []Policy{Historical(), Thompson(), Softmax()} {
		plan, err := p.PlanSeason(context.Background(), o, 0, rng.New(1))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(plan.Effort) != cells {
			t.Fatalf("%s: plan has %d cells, park has %d", p.Name(), len(plan.Effort), cells)
		}
	}
}

// TestClientRejectsMalformedWire: a create or step reply whose record does
// not fit the park — more months than rows, a short row, an observation
// outside the park — fails Reset or Step with an error and leaves the
// client's record as it was.
func TestClientRejectsMalformedWire(t *testing.T) {
	ctx := context.Background()
	park, create, step := wireFixture(t)
	cells := park.Grid.NumCells()
	cases := []struct {
		name   string
		mutate func(w *WireObs)
	}{
		{"inflated months", func(w *WireObs) { w.Months += 3 }},
		{"short row", func(w *WireObs) { w.Detections[0] = w.Detections[0][:cells-1] }},
		{"out-of-range cell", func(w *WireObs) {
			w.Observations = append(w.Observations, WireObservation{Month: w.Months - 1, CellID: cells})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/create", func(t *testing.T) {
			var resp CreateResponse
			if err := json.Unmarshal(create, &resp); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&resp.Obs)
			bad, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			c := cannedClient(park, bad, step)
			if o, err := c.Reset(ctx); err == nil {
				t.Fatalf("Reset accepted a malformed create reply (%d months, %d effort rows)", o.Months, len(o.Effort))
			}
			if c.months != 0 || len(c.effort) != 0 || len(c.detections) != 0 || len(c.observations) != 0 {
				t.Fatalf("rejected create changed the record: %d months", c.months)
			}
		})
		t.Run(tc.name+"/step", func(t *testing.T) {
			var resp StepResponse
			if err := json.Unmarshal(step, &resp); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&resp.Delta)
			bad, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			c := cannedClient(park, create, bad)
			before, err := c.Reset(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if o, _, _, err := c.Step(ctx, uniformEffort(cells)); err == nil {
				t.Fatalf("Step accepted a malformed delta (%d months, %d effort rows)", o.Months, len(o.Effort))
			}
			if after := c.obs(); !reflect.DeepEqual(after, before) {
				t.Fatalf("rejected step changed the record: %d → %d months", before.Months, after.Months)
			}
		})
	}
}

// FuzzClientWire: whatever the server replies, Reset and Step never panic,
// and every Obs they return is consistent with the park and plannable.
func FuzzClientWire(f *testing.F) {
	park, create, step := wireFixture(f)
	f.Add(create, step)
	f.Fuzz(func(t *testing.T, create, step []byte) {
		ctx := context.Background()
		c := cannedClient(park, create, step)
		o, err := c.Reset(ctx)
		if err != nil {
			return
		}
		checkWireObs(t, o)
		o, _, _, err = c.Step(ctx, uniformEffort(park.Grid.NumCells()))
		if err != nil {
			return
		}
		checkWireObs(t, o)
	})
}
