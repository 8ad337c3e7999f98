package network

import (
	"fmt"

	"pacc/internal/simtime"
)

// completion is one slot of the earliest-completion heap: a flow and
// its cached completion delay. Keeping the delay here rather than in Flow
// keeps the keys the heap compares contiguous, and Flow small for the
// zero-byte control flows that never enter the heap. The heap is
// hand-rolled because container/heap's Push boxes every slot it adds.
type completion struct {
	fl    *Flow
	delay simtime.Duration
}

// completionDelay is how long fl takes to drain at its current rate,
// rounded to the nanosecond. fl.rate must be positive.
func completionDelay(fl *Flow) simtime.Duration {
	d := simtime.DurationOf(fl.remaining / fl.rate)
	if d < 1 {
		// Sub-nanosecond residue must still advance the clock, or the
		// completion event would re-fire at the same instant forever.
		d = 1
	}
	return d
}

// earliestCompletion returns the delay until the next flow drains, or -1
// when there is nothing to arm: every active flow is stalled behind a
// down link, or the run has just been failed.
func (f *Fabric) earliestCompletion() simtime.Duration {
	if f.heapStale {
		return f.rebuildCompletions()
	}
	next := simtime.Duration(-1)
	if len(f.heap) > 0 {
		next = f.heap[0].delay
	}
	if f.checkIncremental && !f.verifyCompletion(next) {
		return -1
	}
	return next
}

// rebuildCompletions is the full scan: it re-caches the completion delay
// of every active flow, rebuilds the heap from them and returns the
// earliest (-1 if none). A zero rate with every link up is a fabric logic
// error; the first such flow in f.flows order fails the run as a
// StarvedFlowError, and the cache stays stale.
func (f *Fabric) rebuildCompletions() simtime.Duration {
	clear(f.heap)
	f.heap = f.heap[:0]
	for _, fl := range f.flows {
		fl.hpos = -1
		if fl.rate <= 0 {
			if pathAdminDown(fl.path()) {
				// Legitimately stalled behind a down link; the
				// restore event recomputes rates, so no completion
				// is armed for this flow.
				continue
			}
			f.eng.Fail(&StarvedFlowError{
				At: f.eng.Now(), Src: fl.Src, Dst: fl.Dst,
				Bytes: fl.Bytes, Links: linkNames(fl.path()),
			})
			return -1
		}
		fl.hpos = int32(len(f.heap))
		f.heap = append(f.heap, completion{fl, completionDelay(fl)})
	}
	for i := len(f.heap)/2 - 1; i >= 0; i-- {
		f.heapDown(i)
	}
	f.heapStale = false
	if len(f.heap) == 0 {
		return -1
	}
	return f.heap[0].delay
}

// refreshCompletions re-caches the completion delay of every flow the
// last component solve re-rated and restores heap order around them. A
// flow starved on a healthy path marks the cache stale instead, so the
// next arm's full scan reports the same flow a scan always has.
func (f *Fabric) refreshCompletions() {
	if f.heapStale {
		return
	}
	for _, fl := range f.compFlows {
		if fl.rate <= 0 {
			if !pathAdminDown(fl.path()) {
				f.heapStale = true
				return
			}
			if fl.hpos >= 0 {
				f.heapRemove(fl)
			}
			continue
		}
		d := completionDelay(fl)
		if fl.hpos < 0 {
			fl.hpos = int32(len(f.heap))
			f.heap = append(f.heap, completion{fl, d})
			f.heapUp(int(fl.hpos))
		} else {
			f.heap[fl.hpos].delay = d
			f.heapFix(int(fl.hpos))
		}
	}
}

// CompletionMismatchError reports that the earliest-completion heap
// disagreed with a full scan of the active flows. Only produced under
// SetCheckIncremental. A duration of -1 means that side found no flow to
// arm.
type CompletionMismatchError struct {
	At            simtime.Time
	Indexed, Full simtime.Duration
}

func (e *CompletionMismatchError) Error() string {
	return fmt.Sprintf(
		"network: indexed earliest completion diverged from full scan at %v: %v != %v",
		e.At, e.Indexed, e.Full)
}

// verifyCompletion recomputes the earliest completion with a full scan
// and fails the run if the indexed answer differs by even a nanosecond.
func (f *Fabric) verifyCompletion(indexed simtime.Duration) bool {
	full := simtime.Duration(-1)
	for _, fl := range f.flows {
		if fl.rate <= 0 {
			continue
		}
		if d := completionDelay(fl); full < 0 || d < full {
			full = d
		}
	}
	if full == indexed {
		return true
	}
	f.eng.Fail(&CompletionMismatchError{At: f.eng.Now(), Indexed: indexed, Full: full})
	return false
}

// heapSwap exchanges two heap slots, keeping the flows' positions.
func (f *Fabric) heapSwap(i, j int) {
	h := f.heap
	h[i], h[j] = h[j], h[i]
	h[i].fl.hpos = int32(i)
	h[j].fl.hpos = int32(j)
}

// heapUp moves slot i toward the root until its parent is no later.
func (f *Fabric) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if f.heap[p].delay <= f.heap[i].delay {
			return
		}
		f.heapSwap(i, p)
		i = p
	}
}

// heapDown moves slot i toward the leaves until no child is earlier and
// reports whether it moved.
func (f *Fabric) heapDown(i int) bool {
	start, n := i, len(f.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && f.heap[r].delay < f.heap[c].delay {
			c = r
		}
		if f.heap[i].delay <= f.heap[c].delay {
			break
		}
		f.heapSwap(i, c)
		i = c
	}
	return i > start
}

// heapFix restores heap order after slot i's delay changed.
func (f *Fabric) heapFix(i int) {
	if !f.heapDown(i) {
		f.heapUp(i)
	}
}

// heapRemove deletes fl from the heap.
func (f *Fabric) heapRemove(fl *Flow) {
	i, last := int(fl.hpos), len(f.heap)-1
	if i != last {
		f.heapSwap(i, last)
	}
	f.heap[last] = completion{}
	f.heap = f.heap[:last]
	fl.hpos = -1
	if i != last {
		f.heapFix(i)
	}
}
