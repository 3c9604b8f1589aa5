package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"paws"
	"paws/internal/campaign"
)

// FuzzClosedLoopRequest decodes arbitrary bytes with decodeBody as a
// SimulateRequest and as a CampaignJobRequest and submits each to
// simulateFn and campaignFn. It only validates: the job functions they
// return never run. Neither may panic; every accepted request must stay
// within the server caps (seasons, season months, policy count, campaign
// cells), and every park it names, after range expansion, must pass
// paws.ValidateParkSpec.
func FuzzClosedLoopRequest(f *testing.F) {
	for _, req := range []any{
		fastSim(2),
		fastCampaign(),
		SimulateRequest{Seasons: -3},
		SimulateRequest{SeasonMonths: -1},
		SimulateRequest{BudgetKM: -5},
		SimulateRequest{Policies: []string{"uniform", "skynet"}},
		SimulateRequest{Policies: []string{"uniform", "uniform"}},
		SimulateRequest{Attacker: "quantum"},
		SimulateRequest{Beta: 1.5},
		SimulateRequest{Park: "rand:16", Seasons: maxSimSeasons + 1},
		SimulateRequest{Park: "rand:16", Seasons: 1, SeasonMonths: maxSimSeasonMonths + 1},
		SimulateRequest{Park: "rand:16", Seasons: 1, Policies: make([]string, maxSimPolicies+1)},
		SimulateRequest{Park: "ATLANTIS", Seasons: 1},
		CampaignJobRequest{Parks: []string{"ATLANTIS"}},
		CampaignJobRequest{Parks: []string{"rand:9-2"}},
		CampaignJobRequest{Parks: []string{"rand:0-9223372036854775807"}},
		CampaignJobRequest{Parks: []string{"rand:1-200"}},
		CampaignJobRequest{Parks: []string{"rand:1-8"}, Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		CampaignJobRequest{Seeds: []int64{1, 1}},
		CampaignJobRequest{Policies: []string{"uniform", ""}},
		CampaignJobRequest{SeasonCounts: []int{0}},
		CampaignJobRequest{SeasonCounts: []int{99}},
		CampaignJobRequest{SeasonMonths: 99},
		CampaignJobRequest{Baseline: "skynet"},
		CampaignJobRequest{Resamples: 1_000_000},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	s := New(paws.NewService(), Config{})
	f.Cleanup(func() { s.Close(context.Background()) })
	decode := func(body []byte, v any) error {
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		return decodeBody(httptest.NewRecorder(), r, v)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var sim SimulateRequest
		if decode(body, &sim) == nil {
			if _, err := s.simulateFn(sim); err == nil {
				if sim.Seasons > maxSimSeasons || sim.SeasonMonths > maxSimSeasonMonths || len(sim.Policies) > maxSimPolicies {
					t.Fatalf("simulate request over the caps accepted: %+v", sim)
				}
				if err := paws.ValidateParkSpec(cmp.Or(sim.Park, "MFNP")); err != nil {
					t.Fatalf("simulate request with park %q accepted: %v", sim.Park, err)
				}
			}
		}
		var camp CampaignJobRequest
		if decode(body, &camp) == nil {
			if _, err := s.campaignFn(camp); err == nil {
				for _, n := range camp.SeasonCounts {
					if n > maxSimSeasons {
						t.Fatalf("campaign season count %d over the cap accepted: %+v", n, camp)
					}
				}
				if camp.SeasonMonths > maxSimSeasonMonths || len(camp.Policies) > maxSimPolicies {
					t.Fatalf("campaign request over the caps accepted: %+v", camp)
				}
				parks := camp.Parks
				if len(parks) == 0 {
					parks = []string{"MFNP"}
				}
				parks, err := campaign.ExpandParks(parks)
				if err != nil {
					t.Fatalf("campaign parks %q accepted but do not expand: %v", camp.Parks, err)
				}
				for _, p := range parks {
					if err := paws.ValidateParkSpec(p); err != nil {
						t.Fatalf("campaign park %q accepted: %v", p, err)
					}
				}
				// Empty grid dimensions take the library defaults: three
				// seeds and one season count.
				cells := len(parks) * max(len(camp.Seeds), 3) * max(len(camp.SeasonCounts), 1)
				if cells > maxCampaignCells {
					t.Fatalf("campaign grid of %d cells accepted: %+v", cells, camp)
				}
			}
		}
	})
}
