package sim

import (
	"sort"
	"testing"
)

// TestTimerOrderWithEvents: timers execute at their exact (t, schedule-order)
// position among regular events — a timer scheduled between two At calls at
// the same instant fires between them.
func TestTimerOrderWithEvents(t *testing.T) {
	k := New()
	var order []string
	k.At(10, func() { order = append(order, "a") })
	k.TimerAt(10, func(arg interface{}) { order = append(order, arg.(string)) }, "b")
	k.At(10, func() { order = append(order, "c") })
	k.TimerAt(5, func(interface{}) { order = append(order, "early") }, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"early", "a", "b", "c"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if k.Now() != 10 {
		t.Fatalf("final time %v, want 10", k.Now())
	}
}

// TestTimerAdvancesClockAndCounts: a timer is an ordinary event — it
// advances the clock and counts in Stat.Events.
func TestTimerAdvancesClockAndCounts(t *testing.T) {
	k := New()
	var at Time
	k.TimerAt(42, func(interface{}) { at = k.Now() }, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 42 || k.Now() != 42 {
		t.Fatalf("timer fired at %v, clock %v, want 42", at, k.Now())
	}
	if k.Stat.Events != 1 {
		t.Fatalf("Stat.Events = %d, want 1", k.Stat.Events)
	}
}

// TestTimerCancel: CancelTimer removes a pending timer (it never fires),
// returns true once, and false for every later use of the stale ID.
func TestTimerCancel(t *testing.T) {
	k := New()
	fired := false
	id := k.TimerAt(100, func(interface{}) { fired = true }, nil)
	if n := k.PendingTimers(); n != 1 {
		t.Fatalf("PendingTimers = %d, want 1", n)
	}
	if !k.CancelTimer(id) {
		t.Fatal("first cancel returned false")
	}
	if k.CancelTimer(id) {
		t.Fatal("second cancel of the same ID returned true")
	}
	if n := k.PendingTimers(); n != 0 {
		t.Fatalf("PendingTimers after cancel = %d, want 0", n)
	}
	k.At(200, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled timer fired")
	}
}

// TestTimerCancelAfterFire: once a timer has fired its ID is stale —
// cancellation reports "the timeout won the race".
func TestTimerCancelAfterFire(t *testing.T) {
	k := New()
	id := k.TimerAt(5, func(interface{}) {}, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.CancelTimer(id) {
		t.Fatal("cancel after fire returned true")
	}
}

// TestTimerGenerationOnSlotReuse: canceling a timer and scheduling another
// recycles the heap slot under a bumped generation, so the old ID can never
// alias the new timer.
func TestTimerGenerationOnSlotReuse(t *testing.T) {
	k := New()
	var fired []string
	a := k.TimerAt(10, func(interface{}) { fired = append(fired, "a") }, nil)
	if !k.CancelTimer(a) {
		t.Fatal("cancel a failed")
	}
	b := k.TimerAt(20, func(interface{}) { fired = append(fired, "b") }, nil)
	// a's slot was recycled for b; a's stale ID must not cancel b.
	if k.CancelTimer(a) {
		t.Fatal("stale ID canceled the recycled slot's new timer")
	}
	if n := k.PendingTimers(); n != 1 {
		t.Fatalf("PendingTimers = %d, want 1", n)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "b" {
		t.Fatalf("fired %v, want [b]", fired)
	}
	_ = b
}

// TestTimerCancelIsTrueRemoval: cancellation is a removal, not a tombstone —
// a canceled timer consumes no event pop (Stat.Events counts only the events
// that actually executed), and the same schedule-and-cancel pattern is
// fingerprint-reproducible run to run.
func TestTimerCancelIsTrueRemoval(t *testing.T) {
	run := func() (uint64, uint64) {
		k := New()
		for i := 0; i < 8; i++ {
			id := k.TimerAt(Time(50+i), func(interface{}) {
				t.Error("canceled timer fired")
			}, nil)
			k.CancelTimer(id)
		}
		k.At(10, func() {})
		k.TimerAt(20, func(interface{}) {}, nil)
		k.At(30, func() {})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Fingerprint(), k.Stat.Events
	}
	fp1, ev1 := run()
	fp2, ev2 := run()
	if ev1 != 3 {
		t.Fatalf("Stat.Events = %d, want 3 (canceled timers must not cost pops)", ev1)
	}
	if fp1 != fp2 || ev1 != ev2 {
		t.Fatalf("identical runs diverged: fp %#x/%#x, events %d/%d", fp1, fp2, ev1, ev2)
	}
}

// TestTimerHeapStress: many timers at colliding pseudo-random times, with a
// deterministic subset canceled, fire in exact (t, schedule-order) sequence.
func TestTimerHeapStress(t *testing.T) {
	k := New()
	const n = 400
	type stamp struct {
		t   Time
		seq int
	}
	var want []stamp
	var got []stamp
	rng := uint64(1999)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33
	}
	ids := make([]TimerID, n)
	for i := 0; i < n; i++ {
		at := Time(next() % 64) // heavy collisions: ~6 timers per instant
		seq := i
		ids[i] = k.TimerAt(at, func(interface{}) {
			got = append(got, stamp{at, seq})
		}, nil)
		if seq%3 != 0 {
			want = append(want, stamp{at, seq})
		}
	}
	canceled := 0
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			if !k.CancelTimer(ids[i]) {
				t.Fatalf("cancel of pending timer %d failed", i)
			}
			canceled++
		}
	}
	if n := k.PendingTimers(); n != len(want) {
		t.Fatalf("PendingTimers = %d, want %d", n, len(want))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Survivors fire in (t, scheduling-order): stable sort by time.
	sort.SliceStable(want, func(i, j int) bool { return want[i].t < want[j].t })
	if len(got) != len(want) {
		t.Fatalf("%d timers fired, want %d (%d canceled)", len(got), len(want), canceled)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if k.PendingTimers() != 0 {
		t.Fatalf("PendingTimers after run = %d, want 0", k.PendingTimers())
	}
}

// FuzzTimerDifferential drives the timer heap with an arbitrary
// interleaving of pushes (at colliding timestamps), cancels of live and of
// stale IDs, and pops, and checks every result against a sorted reference
// model. Pops and cancels free slots that later pushes reuse, so the
// generation check on stale IDs is exercised on recycled slots. The seed
// corpus (f.Add and testdata/fuzz) runs on every plain `go test`.
func FuzzTimerDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 1, 0, 2, 0, 3, 3})
	f.Add([]byte{0, 4, 8, 12, 16, 1, 5, 2, 6, 0, 0, 3, 7, 11})
	f.Add([]byte("push-cancel-pop-reuse-timer-heap"))
	f.Fuzz(func(t *testing.T, data []byte) {
		type ref struct {
			t   Time
			seq uint64
			id  TimerID
		}
		var q timerQueue
		var model []ref // sorted by (t, seq)
		var stale []TimerID
		var seq uint64
		now := Time(0)
		for i, b := range data {
			switch b % 4 {
			case 0: // push at one of a few instants: heavy collisions
				seq++
				at := now + Time(b>>2%4)
				id := q.push(at, seq, nil, int(seq))
				j := sort.Search(len(model), func(j int) bool {
					return model[j].t > at || (model[j].t == at && model[j].seq > seq)
				})
				model = append(model, ref{})
				copy(model[j+1:], model[j:])
				model[j] = ref{at, seq, id}
			case 1: // cancel a live timer
				if len(model) == 0 {
					continue
				}
				j := int(b>>2) % len(model)
				if !q.remove(model[j].id) {
					t.Fatalf("op %d: cancel of live timer %+v failed", i, model[j])
				}
				stale = append(stale, model[j].id)
				model = append(model[:j], model[j+1:]...)
			case 2: // cancel a stale ID: must report false and change nothing
				if len(stale) == 0 {
					continue
				}
				if q.remove(stale[int(b>>2)%len(stale)]) {
					t.Fatalf("op %d: a stale ID canceled a timer", i)
				}
			case 3: // pop the earliest timer
				if len(model) == 0 {
					if q.peek() != nil {
						t.Fatalf("op %d: empty model, queue has %d timers", i, q.len())
					}
					continue
				}
				k, _, a := q.popFront()
				want := model[0]
				model = model[1:]
				if k.t != want.t || k.seq != want.seq || a != int(want.seq) {
					t.Fatalf("op %d: popped (%v, %d, arg %v), want (%v, %d)", i, k.t, k.seq, a, want.t, want.seq)
				}
				now = k.t
				stale = append(stale, want.id)
			}
			if q.len() != len(model) {
				t.Fatalf("op %d: queue has %d timers, model %d", i, q.len(), len(model))
			}
		}
		for len(model) > 0 {
			k, _, _ := q.popFront()
			if k.seq != model[0].seq {
				t.Fatalf("drain: popped seq %d, want %d", k.seq, model[0].seq)
			}
			model = model[1:]
		}
		if q.len() != 0 {
			t.Fatalf("drained queue has %d timers", q.len())
		}
	})
}
