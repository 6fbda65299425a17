// DSE strategy-comparison report: best-EKIT-found versus
// evaluations-spent for the exhaustive, wall-pruned and adaptive
// strategies on the Fig 15 SOR lanes×form space, committed as
// BENCH_DSE_STRAT.json at the repo root (see DESIGN.md). Unlike the
// timing baselines, every figure here is deterministic — the engine
// is pure, the adaptive searches are seeded, and the worker count is
// pinned — so the committed file is bit-stable across machines and a
// review diff means the search behaviour itself changed.

package experiments

import (
	"encoding/json"
	"fmt"

	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/tir"
)

// DSEStratRow is one strategy's search outcome on the shared space.
type DSEStratRow struct {
	Strategy string `json:"strategy"`
	// Evals is the number of evaluations the search charged; Coverage
	// is the fraction of the space that is.
	Evals    int     `json:"evals"`
	Coverage float64 `json:"coverage"`
	// BestEKIT and BestVariant identify the best fitting design found.
	BestEKIT    float64 `json:"best_ekit"`
	BestVariant string  `json:"best_variant"`
	// FoundBest reports whether the strategy found the exhaustive
	// sweep's best design.
	FoundBest bool   `json:"found_best"`
	Stop      string `json:"stop"`
}

// DSEStratResult is the whole report.
type DSEStratResult struct {
	Schema string `json:"schema"`
	// Seed and Budget are the adaptive strategies' search options;
	// Workers is the pinned engine parallelism (wall-pruned wave sizes
	// — and so its speculative eval count — follow it).
	Seed        int64         `json:"seed"`
	Budget      int           `json:"budget"`
	Workers     int           `json:"workers"`
	SpacePoints int           `json:"space_points"`
	Rows        []DSEStratRow `json:"strategies"`
}

// dseStratWorkers pins the engine parallelism of the committed
// baseline: provenance must not vary with the host's core count.
const dseStratWorkers = 4

// DSEStrat runs every registered strategy over the Fig 15 lanes×form
// space (32 points on the scaled educational target) through one
// shared engine: the memoised cache means each variant is costed once
// no matter how many strategies visit it, so the rows differ only in
// what the issue at hand is — search behaviour. seed and budget apply
// to the adaptive strategies (seed <= 0 selects 1; budget <= 0 caps
// the adaptive searches at 24 evaluations, three quarters of the
// space).
func DSEStrat(seed int64, budget int) (*DSEStratResult, error) {
	if seed <= 0 {
		seed = 1
	}
	if budget <= 0 {
		budget = 24
	}
	build := func(lanes int) (*tir.Module, error) { return Fig15Spec(lanes).Module() }
	space, err := dse.NewSpace(
		dse.LanesAxis(dse.LaneCounts(16)),
		dse.FormAxis(perf.FormA, perf.FormB),
	)
	if err != nil {
		return nil, err
	}
	eval, err := dse.NewEvaluator(dse.EvalConfig{Build: build, Workload: perf.Workload{NKI: 10},
		Form: perf.FormB, Shelf: []*device.Target{device.GSD8Edu()}})
	if err != nil {
		return nil, err
	}
	eng := dse.NewEngine(space, eval, dseStratWorkers)

	res := &DSEStratResult{
		Schema:      "tytra-bench-dse-strat/v1",
		Seed:        seed,
		Budget:      budget,
		Workers:     dseStratWorkers,
		SpacePoints: space.Size(),
	}
	var refEKIT float64
	for _, name := range dse.StrategyNames() {
		st, err := dse.ParseStrategy(name)
		if err != nil {
			return nil, err
		}
		opts := dse.SearchOptions{Seed: seed}
		if dse.StrategyIsAdaptive(name) {
			opts.Budget = dse.Budget{MaxEvals: budget}
		}
		r, err := eng.Search(st, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		row := DSEStratRow{
			Strategy: name,
			Evals:    r.Evals,
			Coverage: r.Coverage,
			Stop:     string(r.Stop),
		}
		if r.Best != nil {
			row.BestEKIT = r.Best.EKIT
			row.BestVariant = space.Describe(r.BestVariant)
		}
		if name == "exhaustive" {
			refEKIT = row.BestEKIT
		}
		row.FoundBest = refEKIT != 0 && row.BestEKIT == refEKIT
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the comparison.
func (r *DSEStratResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("DSE strategy comparison: SOR lanes×form (%d points, seed=%d, adaptive budget=%d)",
			r.SpacePoints, r.Seed, r.Budget),
		"strategy", "evals", "coverage%", "best-EKIT/s", "best", "found-best", "stop")
	for _, row := range r.Rows {
		t.AddRow(row.Strategy, row.Evals, row.Coverage*100, row.BestEKIT,
			row.BestVariant, fmt.Sprintf("%v", row.FoundBest), row.Stop)
	}
	return t
}

// JSON renders the report for BENCH_DSE_STRAT.json. GOOS/GOARCH/CPU
// are deliberately absent: nothing here is a timing, so the file must
// not churn across machines.
func (r *DSEStratResult) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "{}" // cannot happen: the struct is plain data
	}
	return string(b) + "\n"
}
