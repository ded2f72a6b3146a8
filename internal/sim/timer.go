package sim

// This file is the kernel's timer tier: cancelable timeout events for the
// reactive transport and strategy-level failure detection. A timer is an
// ordinary event in every observable respect — it is allocated a sequence
// number when scheduled, executes at its exact (t, seq) position in the
// global order, advances the clock, counts in Stat.Events and folds into
// the fingerprint — but it lives in its own indexed heap so cancellation
// is a true removal: a canceled timer leaves no tombstone behind, consumes
// no pop, and never perturbs the (t, seq) trajectory of the surviving
// events. That is what keeps runs with many canceled retransmission timers
// (the common case: almost every ack cancels one) fingerprint-identical
// across fork/restore.
//
// The heap is 4-ary over 24-byte (t, seq, slot) keys; each timer's
// callback and argument sit in side arrays indexed by slot, so a sift
// touches only the keys. The reactive Barnes-Hut runs keep a few hundred
// timers pending (up to about a thousand) and cancel a third to a half of
// the ones they schedule; BenchmarkTimerChurn measures the heap at that
// size.
//
// Like the lazy tier, timers execute inline at the loop's pop boundary and
// can never be the event that resumes a process; callbacks must not block.

// TimerID identifies a pending timer for cancellation. The zero TimerID is
// never issued. Slots are recycled under a generation counter, so a stale
// ID (its timer already fired or was canceled) is detected, never aliased
// to a newer timer in the same slot.
type TimerID struct {
	slot int32
	gen  uint32
}

// timerKey is one pending timer's heap entry: its (t, seq) position and
// the slot that holds its callback. The callback and its argument live in
// the queue's side arrays, so the entries the sifts move are 24 bytes.
type timerKey struct {
	t    Time
	seq  uint64
	slot int32
}

func (a *timerKey) before(b *timerKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// timerQueue is a 4-ary min-heap of timerKeys by (t, seq) with a
// slot→position index, so removal by TimerID is O(log n) without
// tombstones. Per-slot side arrays hold each timer's callback and
// argument and the slot's generation. Sifts move a hole instead of
// swapping, writing each displaced entry and its index once.
type timerQueue struct {
	h    []timerKey
	pos  []int32 // slot -> heap index, -1 when inactive
	gen  []uint32
	fn   []func(interface{})
	arg  []interface{}
	free []int32
}

func (q *timerQueue) len() int { return len(q.h) }

func (q *timerQueue) peek() *timerKey {
	if len(q.h) == 0 {
		return nil
	}
	return &q.h[0]
}

// push schedules fn(arg) at (t, seq) and returns its TimerID. The
// generation is bumped at slot release, invalidating every ID issued for
// the slot's prior lives.
func (q *timerQueue) push(t Time, seq uint64, fn func(interface{}), arg interface{}) TimerID {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		slot = int32(len(q.pos))
		q.pos = append(q.pos, -1)
		q.gen = append(q.gen, 1)
		q.fn = append(q.fn, nil)
		q.arg = append(q.arg, nil)
	}
	q.fn[slot], q.arg[slot] = fn, arg
	q.h = append(q.h, timerKey{})
	q.siftUp(len(q.h)-1, timerKey{t: t, seq: seq, slot: slot})
	return TimerID{slot: slot, gen: q.gen[slot]}
}

// popFront removes the earliest timer and returns its key and callback.
func (q *timerQueue) popFront() (timerKey, func(interface{}), interface{}) {
	k := q.h[0]
	fn, arg := q.release(k.slot)
	q.removeAt(0)
	return k, fn, arg
}

// remove cancels the timer identified by id; false when the id is stale.
func (q *timerQueue) remove(id TimerID) bool {
	if id.slot < 0 || int(id.slot) >= len(q.pos) || q.gen[id.slot] != id.gen {
		return false
	}
	i := int(q.pos[id.slot])
	if i < 0 {
		return false
	}
	q.release(id.slot)
	q.removeAt(i)
	return true
}

// removeAt deletes heap entry i (its slot already released) by sifting
// the last entry into the hole from i.
func (q *timerQueue) removeAt(i int) {
	last := len(q.h) - 1
	k := q.h[last]
	q.h = q.h[:last]
	if i == last {
		return
	}
	if i > 0 && k.before(&q.h[(i-1)>>2]) {
		q.siftUp(i, k)
	} else {
		q.siftDown(i, k)
	}
}

// release retires a slot — bump the generation, mark it inactive, drop
// its callback references, recycle it — and returns the callback.
func (q *timerQueue) release(slot int32) (func(interface{}), interface{}) {
	fn, arg := q.fn[slot], q.arg[slot]
	q.fn[slot], q.arg[slot] = nil, nil
	q.pos[slot] = -1
	q.gen[slot]++
	q.free = append(q.free, slot)
	return fn, arg
}

// siftUp places k into the hole at i, moving parents down while k
// precedes them.
func (q *timerQueue) siftUp(i int, k timerKey) {
	h := q.h
	for i > 0 {
		p := (i - 1) >> 2
		if !k.before(&h[p]) {
			break
		}
		h[i] = h[p]
		q.pos[h[i].slot] = int32(i)
		i = p
	}
	h[i] = k
	q.pos[k.slot] = int32(i)
}

// siftDown places k into the hole at i, moving the least child up while
// it precedes k.
func (q *timerQueue) siftDown(i int, k timerKey) {
	h := q.h
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&k) {
			break
		}
		h[i] = h[m]
		q.pos[h[i].slot] = int32(i)
		i = m
	}
	h[i] = k
	q.pos[k.slot] = int32(i)
}

// TimerAt schedules fn(arg) as a cancelable timeout at absolute time t and
// returns its TimerID. The callback runs in event context at the exact
// (t, schedule-order) position a regular AtCall event would occupy; it must
// not block, and it can never be the event that resumes a process. Unlike
// every other scheduling call, a pending timer can be revoked — CancelTimer
// removes it outright, as if it had never been scheduled (only its sequence
// number stays consumed, which both execution modes agree on).
func (k *Kernel) TimerAt(t Time, fn func(interface{}), arg interface{}) TimerID {
	k.checkPast(t)
	return k.tq.push(t, k.allocSeq(), fn, arg)
}

// CancelTimer revokes a pending timer. It returns false when the timer
// already fired or was already canceled (the ID is stale); the caller can
// treat that as "the timeout won the race".
func (k *Kernel) CancelTimer(id TimerID) bool {
	return k.tq.remove(id)
}

// PendingTimers returns the number of scheduled timers that have neither
// fired nor been canceled (diagnostics and quiescence checks).
func (k *Kernel) PendingTimers() int { return k.tq.len() }
