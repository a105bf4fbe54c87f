package sailor

import "testing"

// TestWithoutDominancePruningParity covers the facade-level ablation knob:
// a System with DisableDominancePruning set returns the identical plan and
// estimate the default System returns on a heterogeneous pool, while the
// default System visibly explores less — the knob only trades search work,
// never answers.
func TestWithoutDominancePruningParity(t *testing.T) {
	zone := GCPZone("us-central1", 'a')
	pool := NewPool().Set(zone, A100, 16).Set(zone, V100, 16)
	on, err := New(OPT350M(), []GPUType{A100, V100}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	off, err := New(OPT350M(), []GPUType{A100, V100}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	off.DisableDominancePruning = true
	a, err := on.Plan(pool, MaxThroughput, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := off.Plan(pool, MaxThroughput, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan.String() != b.Plan.String() {
		t.Errorf("dominance pruning changed the chosen plan:\npruned:   %s\nunpruned: %s", a.Plan, b.Plan)
	}
	if a.Estimate.IterTime != b.Estimate.IterTime || a.Estimate.Cost() != b.Estimate.Cost() {
		t.Errorf("dominance pruning changed the estimate: %+v vs %+v", a.Estimate, b.Estimate)
	}
	if a.Explored >= b.Explored {
		t.Errorf("dominance pruning did not shrink the search: explored %d vs %d", a.Explored, b.Explored)
	}
}
