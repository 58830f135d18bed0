package fault

import (
	"reflect"
	"testing"
)

func TestAppliesAttemptSemantics(t *testing.T) {
	cases := []struct {
		event, attempt int
		want           bool
	}{
		{0, 1, true},  // zero means first attempt
		{0, 2, false}, // ... and only the first
		{1, 1, true},
		{2, 1, false},
		{2, 2, true},
		{-1, 1, true}, // negative means every attempt
		{-1, 7, true},
	}
	for _, tc := range cases {
		if got := applies(tc.event, tc.attempt); got != tc.want {
			t.Errorf("applies(%d, %d) = %v, want %v", tc.event, tc.attempt, got, tc.want)
		}
	}
}

func TestCrashTimeEarliestWins(t *testing.T) {
	p := &Plan{Crashes: []Crash{
		{Rank: 2, At: 5},
		{Rank: 2, At: 3},
		{Rank: 1, At: 1},
	}}
	at, ok := p.CrashTime(1, 2)
	if !ok || at != 3 {
		t.Fatalf("CrashTime(1, 2) = %v, %v; want 3, true", at, ok)
	}
	if _, ok := p.CrashTime(2, 2); ok {
		t.Fatal("attempt-1 crash fired on attempt 2")
	}
	if _, ok := p.CrashTime(1, 0); ok {
		t.Fatal("crash reported for an unharmed rank")
	}
}

func TestFactorsWindowedAndMultiplicative(t *testing.T) {
	p := &Plan{
		Degrades: []Degrade{
			{Rank: 1, From: 2, To: 4, Factor: 3},
			{Rank: 1, From: 3, To: 5, Factor: 2},
		},
		LinkSlows: []LinkSlow{{Src: 0, Dst: 1, From: 1, To: 2, Factor: 4}},
	}
	if f := p.ComputeFactor(1, 1, 1.9); f != 1 {
		t.Fatalf("factor before window = %v, want 1", f)
	}
	if f := p.ComputeFactor(1, 1, 2.5); f != 3 {
		t.Fatalf("factor in first window = %v, want 3", f)
	}
	if f := p.ComputeFactor(1, 1, 3.5); f != 6 {
		t.Fatalf("overlapping factors = %v, want 6", f)
	}
	if f := p.ComputeFactor(1, 1, 4.0); f != 2 {
		t.Fatalf("half-open window: factor at To = %v, want 2", f)
	}
	if f := p.ComputeFactor(1, 2, 2.5); f != 1 {
		t.Fatalf("factor on unharmed rank = %v, want 1", f)
	}
	// Link slowdowns are direction-agnostic.
	if f := p.LinkFactor(1, 1, 0, 1.5); f != 4 {
		t.Fatalf("reverse-direction link factor = %v, want 4", f)
	}
	if f := p.LinkFactor(1, 0, 2, 1.5); f != 1 {
		t.Fatalf("unrelated link factor = %v, want 1", f)
	}
}

func TestWithoutRenumbersRanks(t *testing.T) {
	p := &Plan{
		Crashes:   []Crash{{Rank: 1, At: 2}, {Rank: 3, At: 4}},
		LinkSlows: []LinkSlow{{Src: 0, Dst: 3, From: 0, To: 1, Factor: 2}, {Src: 1, Dst: 2, From: 0, To: 1, Factor: 2}},
		Degrades:  []Degrade{{Rank: 2, From: 0, To: 1, Factor: 2}},
	}
	q := p.Without(1)
	if len(q.Crashes) != 1 || q.Crashes[0].Rank != 2 {
		t.Fatalf("crashes after Without(1) = %+v, want rank 3 shifted to 2", q.Crashes)
	}
	if len(q.LinkSlows) != 1 || q.LinkSlows[0].Dst != 2 {
		t.Fatalf("link slowdowns after Without(1) = %+v", q.LinkSlows)
	}
	if len(q.Degrades) != 1 || q.Degrades[0].Rank != 1 {
		t.Fatalf("degradations after Without(1) = %+v", q.Degrades)
	}
}

func TestValidate(t *testing.T) {
	good := &Plan{Crashes: []Crash{{Rank: 1, At: 0.5}}}
	if err := good.Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []*Plan{
		{Crashes: []Crash{{Rank: 4, At: 1}}},
		{Crashes: []Crash{{Rank: 1, At: -1}}},
		{LinkSlows: []LinkSlow{{Src: 0, Dst: 1, From: 0, To: 1, Factor: 0}}},
		{LinkSlows: []LinkSlow{{Src: 0, Dst: 9, From: 0, To: 1, Factor: 2}}},
		{LinkSlows: []LinkSlow{{Src: 0, Dst: 1, From: 3, To: 1, Factor: 2}}},
		{Degrades: []Degrade{{Rank: -1, From: 0, To: 1, Factor: 2}}},
		{Degrades: []Degrade{{Rank: 0, From: 0, To: 1, Factor: -2}}},
	}
	for i, p := range bad {
		if err := p.Validate(4); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(4); err != nil {
		t.Fatalf("nil plan rejected: %v", err)
	}
}

func TestRandomReproducible(t *testing.T) {
	cfg := RandomConfig{Ranks: 8, Crashes: 2, LinkSlows: 3, Degrades: 2}
	a, err := Random(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%+v\n%+v", a, b)
	}
	c, err := Random(43, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	if err := a.Validate(8); err != nil {
		t.Fatalf("random plan invalid: %v", err)
	}
	for _, cr := range a.Crashes {
		if cr.Rank == 0 {
			t.Fatal("random plan crashed the master")
		}
	}
	for _, l := range a.LinkSlows {
		if l.Src == l.Dst {
			t.Fatal("random plan slowed a self-link")
		}
	}
}

func TestEmpty(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Fatal("nil plan not empty")
	}
	p := &Plan{Crashes: []Crash{{Rank: 1, At: 1}}}
	if p.Empty() {
		t.Fatal("non-empty plan reported empty")
	}
}
