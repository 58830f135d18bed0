package sched

import (
	"reflect"
	"testing"
	"time"
)

// The ledger is the one implementation of ID minting/adoption, retention
// and listing order behind both Scheduler.Jobs and flow.Engine.Pipelines;
// these tables are the assertions the two layers used to carry separately.
func TestLedgerReserve(t *testing.T) {
	l := NewLedger[int]("job", 8)
	steps := []struct {
		id      string // "" mints
		want    string
		wantErr bool
	}{
		{"", "job-1", false},
		{"", "job-2", false},
		{"job-7", "job-7", false},       // adopt: counter moves past it
		{"", "job-8", false},            // fresh IDs never collide with adopted
		{"job-7", "", true},             // duplicate of an adopted ID
		{"job-1", "", true},             // duplicate of a minted ID
		{"job-3", "job-3", false},       // adopting below the counter leaves it
		{"", "job-9", false},            //
		{"imported", "imported", false}, // foreign ID: adopted, counter untouched
		{"pipe-40", "pipe-40", false},   // another ledger's prefix is foreign too
		{"", "job-10", false},
	}
	for i, st := range steps {
		got, err := l.Reserve(st.id)
		if (err != nil) != st.wantErr || got != st.want {
			t.Fatalf("step %d Reserve(%q) = %q, %v; want %q, err=%v", i, st.id, got, err, st.want, st.wantErr)
		}
		if err == nil {
			l.Add(got, time.Time{}, i)
		}
	}
}

func TestLedgerRetireEvictsOldestSettledFirst(t *testing.T) {
	l := NewLedger[string]("job", 2)
	for _, id := range []string{"job-1", "job-2", "job-3", "job-4"} {
		l.Add(id, time.Time{}, id)
	}
	known := func() []string {
		var ids []string
		for _, id := range []string{"job-1", "job-2", "job-3", "job-4"} {
			if _, ok := l.Get(id); ok {
				ids = append(ids, id)
			}
		}
		return ids
	}
	// Settle order, not ID order, decides who is evicted; job-4 never
	// settles, so it is never a candidate. The settle times are spaced
	// beyond the grace, so the bound alone decides.
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i, step := range []struct {
		retire string
		want   []string
	}{
		{"job-3", []string{"job-1", "job-2", "job-3", "job-4"}},
		{"job-1", []string{"job-1", "job-2", "job-3", "job-4"}},
		{"job-2", []string{"job-1", "job-2", "job-4"}}, // job-3 settled first
	} {
		l.Retire(step.retire, t0.Add(time.Duration(i)*2*retireGrace))
		if got := known(); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("after Retire(%s): known %v, want %v", step.retire, got, step.want)
		}
	}
	if len(l.Entries()) != 3 {
		t.Fatalf("Entries() has %d items, want 3", len(l.Entries()))
	}
}

// An item settled within the grace outlives the retention bound: a client
// told about it a moment ago can still look it up. Once the grace has
// passed, the next settle evicts it.
func TestLedgerRetireKeepsItemsWithinGrace(t *testing.T) {
	l := NewLedger[string]("job", 1)
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	ids := []string{"job-1", "job-2", "job-3", "job-4"}
	for i, id := range ids {
		l.Add(id, t0, id)
		l.Retire(id, t0.Add(time.Duration(i)*retireGrace/8))
	}
	if got := len(l.Entries()); got != len(ids) {
		t.Fatalf("%d of %d items settled within the grace are known, want all", got, len(ids))
	}
	// job-1 settled a grace before job-5; job-2 only 7/8 of one.
	l.Add("job-5", t0, "job-5")
	l.Retire("job-5", t0.Add(retireGrace))
	if _, ok := l.Get("job-1"); ok {
		t.Fatal("job-1 is still known a full grace after it settled, beyond the bound")
	}
	for _, id := range []string{"job-2", "job-3", "job-4", "job-5"} {
		if _, ok := l.Get(id); !ok {
			t.Fatalf("%s, settled within the grace, was evicted", id)
		}
	}
	// Long after, one more settle brings the history back to the bound.
	l.Add("job-6", t0, "job-6")
	l.Retire("job-6", t0.Add(10*retireGrace))
	if got := Listing(l.Entries()); !reflect.DeepEqual(got, []string{"job-6"}) {
		t.Fatalf("after the grace: known %v, want [job-6]", got)
	}
}

func TestLedgerListingOrder(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	l := NewLedger[string]("job", 8)
	for _, en := range []struct {
		id string
		at time.Time
	}{
		{"job-10", t0}, // equal times: by number, so job-9 before job-10
		{"job-9", t0},
		{"zeta", t0}, // foreign IDs number 0: before native ones, by ID
		{"alpha", t0},
		{"job-30", t0.Add(-time.Hour)},               // an older resumed item lists first
		{"job-2", t0.Add(time.Second)},               // time beats number
		{"job-3", time.Time{}},                       // a restored item with no journaled time
		{"job-11", t0.In(time.FixedZone("x", 3600))}, // same instant, other zone
	} {
		l.Add(en.id, en.at, en.id)
	}
	want := []string{"job-3", "job-30", "alpha", "zeta", "job-9", "job-10", "job-11", "job-2"}
	if got := Listing(l.Entries()); !reflect.DeepEqual(got, want) {
		t.Fatalf("listing order = %v, want %v", got, want)
	}
}
