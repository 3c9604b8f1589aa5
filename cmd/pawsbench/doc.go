// Command pawsbench is the PAWS performance benchmark: one command that
// drives four named workloads through the public paws.Service API and the
// real serve.New HTTP handler, all in one process, checks that every output
// is correct, and prints every metric by name and unit.
//
// It is a module of its own (it imports the repository's internal packages
// through a replace directive) and is run from the repository root:
//
//	bash cmd/pawsbench/run.sh -workload <name|all> -seed N [-seconds S] [-trace 1] [-out runs.jsonl]
//	bash cmd/pawsbench/run.sh -compare a.jsonl b.jsonl
//
// run.sh builds the binary into .bench_build/ (build cache included) and
// runs it. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. -out appends the run — the
// same result plus workload, seed, output digest, host and commit — as one
// JSON line to a run set. -workload all re-executes the binary once per
// workload, so set-up, GC state and peak RSS stay separate.
//
// # Workloads
//
// Where the seed picks inputs, it picks only inputs that cost about the
// same, so runs with different seeds measure the same work.
//
//   - serve-warm: steady interactive serving. Set-up builds what
//     `pawsd -scale full -train` serves (MFNP full, GPB-iW, seed 7), then
//     fills the riskmap LRU at efforts 1, 1.5, 2, 2.5 and the plan memo for
//     all 8 posts. The load is internal/load.Run: open loop at 60 requests/s
//     with at most 2 in flight, mix predict 5 / riskmap 5 / plan 2, drawn
//     from the seed. Caches are warm, so HTTP/JSON and the warm solver carry
//     the time.
//   - refresh: the write path beside the reads. Closed loop, one client.
//     Each cycle submits a train job (MFNP full, GPB-iW, seed 7, name
//     default) and polls it to completion. The re-registration invalidates
//     the riskmap LRU and the plan memo, so the cycle then reads a cold
//     riskmap (effort 2) and a cold plan (post seed mod 8, beta 0.9). This
//     is where cold batched riskmaps and pointwise memo fill show.
//   - season: research traffic that bypasses serving and the registry.
//     Closed loop of Service.Simulate on MFNP full, seed 7, 4 seasons,
//     policies paws, uniform and thompson. The seed picks the paws policy's
//     beta, which shapes only the reported routes. Training is most of the
//     paws policy's time, so training changes show here.
//   - scale-1e5: memory-bound work on a large park, rand:7@1e5 with 24
//     months of history. Each iteration runs dataset.Build, Service.Train
//     (DTB-iW, 5 thresholds × 5 members, seed 53), AddModel, RiskMaps at
//     effort 1, and Plan for post 0 at beta 0.3, which is hierarchical at
//     this size. The working set is far larger than the CPU caches, so a
//     gain that holds only while MFNP fits in cache shows its cost here.
//     Its inputs ignore the seed: every input that changes the work also
//     changes the fine solve's cost, by up to 20 times for some bagging
//     seeds.
//
// The closed loops (refresh, season, scale-1e5) collect the heap before
// each op, untimed, so an op's time and the peak RSS do not depend on where
// the previous op's garbage happened to be collected.
//
// # Output checks
//
// Serve-warm plans and riskmaps must be byte-identical to the set-up's
// reference for the same post or effort, ignoring runtime_ms and cached;
// every prediction is recomputed with Service.PredictCells. Set-ups after
// the first must reproduce the first one's references. Every refresh cycle
// must reproduce cycle 0's train result (ignoring the generation), riskmap
// and plan. Simulate reports and scale-1e5 outputs must be identical across
// iterations. Any mismatch or error counts as a failed op. The digest of
// the reference outputs goes into the run record; the same workload and
// seed must give the same digest on every run.
//
// # End-to-end metrics
//
// An untraced run prints these three, for every workload:
//
//   - setup_s (s): median wall time of the workload's set-up, which is
//     built 3 times per run. serve-warm: train, register and warm the
//     caches. refresh: train and register the first model. season: build
//     the MFNP full scenario. scale-1e5: build the 10^5-cell scenario.
//   - peak_rss_mb (MB): the process's peak resident set.
//   - op_ms (ms): median wall time of the workload's unit of work.
//     serve-warm: per-endpoint p50 latencies (from the scheduled send time)
//     averaged with the mix weights 5/5/2.
//     refresh: one cycle. season: one Simulate call divided by its 4
//     seasons. scale-1e5: one pipeline iteration.
//
// # Per-layer metrics
//
// A traced run (-trace 1) prints these instead. Each is the median over
// the run. A metric of a layer the workload does not exercise reads 0.
// Stage spans come from the existing obs.StartSpan sites, collected with
// obs.WithTrace. Refresh reads its server-side spans from the handler's
// /tracez ring. The other numbers time the benchmark's own calls into
// public functions. Each line names the workloads that fill the metric and
// the end-to-end metric it should move:
//
//   - serve.{predict,riskmap,plan}_{p50,p95}_ms (ms) and _n (count),
//     serve.riskmap_hit_rate (ratio), load.overrun_s (s; run wall time minus
//     scheduled duration, > 0 means backlog): serve-warm; diagnose op_ms.
//   - paws.predict_ms, paws.riskmap_warm_ms (ms): serve-warm, as direct
//     Service calls after the load. The HTTP cost is serve.*_p50_ms minus
//     these.
//   - plan.solve_ms (ms): serve-warm, warm direct plans; moves its op_ms.
//   - plan.routes_ms (ms): route extraction; serve-warm, refresh, season
//     (where it includes the per-post solves) and scale-1e5.
//   - job.queue_ms, job.run_ms (ms, from the job snapshot's created,
//     started and finished times): refresh; move its op_ms.
//   - geo.scenario_ms, iware.train_ms, paws.register_ms (ms): the set-up of
//     serve-warm and refresh (the same steps a train job runs), and
//     scenario building in season and scale-1e5 set-ups; paws.auc_ms:
//     refresh. They move setup_s, and refresh's op_ms through job.run_ms.
//   - serve.riskmap_cold_ms, serve.plan_cold_ms (ms, HTTP wall time):
//     refresh cycles and the serve-warm cache warm-up; paws.riskmap_cold_ms
//     and plan.solve_cold_ms (ms, server spans): refresh. They move
//     refresh's op_ms and serve-warm's setup_s; plan.solve_cold_ms must not
//     move serve-warm's op_ms.
//   - dataset.build_ms, iware.train_ms, paws.riskmap_ms, plan.routes_ms,
//     env.patrol_ms, sim.plan_ms (ms per season, paws policy): season;
//     move its op_ms.
//   - dataset.build_ms, iware.train_ms, paws.register_ms, paws.riskmap_ms,
//     paws.riskmap_cells_per_s (1/s), plan.coarse_ms, plan.refine_ms,
//     plan.routes_ms: scale-1e5; move its op_ms.
//   - trace.overhead_pct (%): every workload. Traced against untraced
//     medians of the same op, which alternate within the run (serve-warm:
//     direct warm plans).
//
// # Reading a traced run
//
// A span's duration includes the spans nested in it. A layer's self time
// is its span minus its children. Only season nests stages: env.Drive's
// per-season "plan" span contains the paws policy's build, train, riskmap
// and routes spans, so sim.plan_ms is reported as self time. Every other
// stage metric is a leaf. Simulate runs its policies in parallel, so the
// stages of the paws policy, not their sum over policies, account for
// season's op_ms.
//
// # Comparing run sets
//
// -compare prints, for each workload and each metric BENCHMARK.json
// declares, both run sets' medians and quartiles, the change in medians
// and a verdict. Runs pair by seed. "better" means the second set wins at
// least nine tenths of the pairs and the medians differ by more than the
// first set's interquartile range. Otherwise an end-to-end metric is
// "worse" when its median is worse by more than its bound, "within bound"
// when not, and "unresolved" when either set's spread is wider than the
// bound, unless every run of the second set beats every run of the first.
// Per-layer metrics have no bound: they are better, worse (the same rule
// reversed) or unresolved. testdata/ holds two run sets of the same code;
// compare_test.go checks that they agree.
package main
