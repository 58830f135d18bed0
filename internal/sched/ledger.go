package sched

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Ledger is the lifecycle book shared by the Scheduler (jobs) and the
// flow Engine (pipelines): it mints "prefix-N" IDs, adopts journal-replayed
// ones, maps IDs to items, keeps a bounded history of settled items and
// produces the listing order. It has no lock of its own — every method
// runs under its owner's mutex — and an entry's submit time is fixed at
// registration, so listings never read mutable item state.
type Ledger[T any] struct {
	prefix  string
	retain  int
	next    uint64
	entries map[string]LedgerEntry[T]
	settled []settledID // oldest first
}

// settledID is one settled item in the retained history.
type settledID struct {
	id string
	at time.Time
}

// retireGrace is how long a settled item stays queryable whatever the
// retention bound: a client that polls a job it was just told about must
// find it, even when more than the bound's worth of jobs settle in the
// meantime. Result-cache hits settle at admission at thousands a second, so
// a history of 64 turns over in milliseconds, shorter than a host stall
// between a 202 and its poll.
const retireGrace = time.Second

// LedgerEntry is one registered item with its listing keys.
type LedgerEntry[T any] struct {
	ID        string
	Submitted time.Time
	Item      T
	number    uint64 // N of a native "prefix-N" ID, 0 for foreign IDs
}

// NewLedger returns an empty ledger minting "prefix-N" IDs and keeping at
// most retain settled items, plus any that settled within retireGrace.
func NewLedger[T any](prefix string, retain int) *Ledger[T] {
	return &Ledger[T]{prefix: prefix, retain: retain, entries: make(map[string]LedgerEntry[T])}
}

// number extracts N from "prefix-N" (0 for foreign IDs).
func (l *Ledger[T]) number(id string) uint64 {
	digits, ok := strings.CutPrefix(id, l.prefix+"-")
	if !ok {
		return 0
	}
	n, _ := strconv.ParseUint(digits, 10, 64) // 0 on a malformed suffix
	return n
}

// Reserve returns the ID a new item registers under: the next minted one
// when id is empty, otherwise the replayed id itself — rejected if already
// registered, and with the mint counter moved past it so fresh IDs never
// collide with recovered ones.
func (l *Ledger[T]) Reserve(id string) (string, error) {
	if id == "" {
		l.next++
		return fmt.Sprintf("%s-%d", l.prefix, l.next), nil
	}
	if _, ok := l.entries[id]; ok {
		return "", fmt.Errorf("%s already known", id)
	}
	if n := l.number(id); n > l.next {
		l.next = n
	}
	return id, nil
}

// Add registers item under a reserved id with its submit time: now for a
// fresh submission, the journaled time for a resumed or restored one.
func (l *Ledger[T]) Add(id string, submitted time.Time, item T) {
	l.entries[id] = LedgerEntry[T]{ID: id, Submitted: submitted, Item: item, number: l.number(id)}
}

// Retire moves id, settled at at, into the settled history and evicts the
// oldest settled items beyond the retention bound — each only once it
// settled at least retireGrace before at.
func (l *Ledger[T]) Retire(id string, at time.Time) {
	l.settled = append(l.settled, settledID{id, at})
	for len(l.settled) > l.retain && at.Sub(l.settled[0].at) >= retireGrace {
		delete(l.entries, l.settled[0].id)
		l.settled = l.settled[1:]
	}
}

// Get looks an item up by ID.
func (l *Ledger[T]) Get(id string) (T, bool) {
	en, ok := l.entries[id]
	return en.Item, ok
}

// Entries copies every registered entry, in no particular order.
func (l *Ledger[T]) Entries() []LedgerEntry[T] {
	out := make([]LedgerEntry[T], 0, len(l.entries))
	for _, en := range l.entries {
		out = append(out, en)
	}
	return out
}

// Listing sorts entries into listing order — ascending submit time, ties
// by ID number (so job-10 lists after job-9), then by ID — and returns
// their items. It touches no ledger state: call it after releasing the
// owner's lock.
func Listing[T any](entries []LedgerEntry[T]) []T {
	sort.Slice(entries, func(a, b int) bool {
		ea, eb := &entries[a], &entries[b]
		if !ea.Submitted.Equal(eb.Submitted) {
			return ea.Submitted.Before(eb.Submitted)
		}
		if ea.number != eb.number {
			return ea.number < eb.number
		}
		return ea.ID < eb.ID
	})
	items := make([]T, len(entries))
	for i := range entries {
		items[i] = entries[i].Item
	}
	return items
}
