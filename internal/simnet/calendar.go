package simnet

import "fmt"

// calendar holds what is travelling on the links — cells, or ingress
// credits — keyed by the slot it lands in: a ring of buckets indexed by
// arrival slot mod len(ring), with one more bucket than the longest link
// takes, so the slots a sender can reach from `now` (now+1 … now+maxLatency)
// never alias the bucket being drained. A slot visits only what is due and
// never touches the rest.
//
// Order is part of the simulation (it fixes which cell a per-VC queue sees
// first and the order of trace events). Every sender appends, and slots
// advance monotonically, so each bucket is in send order; draining bucket
// `now` therefore visits the arrivals in exactly the order a scan of one
// send-ordered list filtered by arrive == now would. A ring per link would
// not: it would visit them link by link.
type calendar[T interface{ due() int64 }] struct {
	ring  [][]T
	count int
}

// grow resizes the ring to hold arrivals up to maxLatency slots ahead,
// re-bucketing what is in flight. It never shrinks.
func (c *calendar[T]) grow(maxLatency int64) {
	if int(maxLatency) < len(c.ring) {
		return
	}
	old := c.ring
	c.ring = make([][]T, maxLatency+1)
	c.count = 0
	for _, b := range old {
		for i := range b {
			*c.file(b[i].due()) = b[i]
		}
	}
}

// file makes room for one more entry landing in slot at and returns it for
// the caller to fill in completely, due() == at included: the bucket's spare
// capacity holds stale entries, not zeroes. (A cell in flight is a
// hundred-odd bytes; built in place it is copied once.)
func (c *calendar[T]) file(at int64) *T {
	b := &c.ring[at%int64(len(c.ring))]
	if k := len(*b); k < cap(*b) {
		*b = (*b)[:k+1]
	} else {
		var zero T
		*b = append(*b, zero)
	}
	c.count++
	return &(*b)[len(*b)-1]
}

// take empties the bucket of slot now and returns its entries in send
// order. The slice is the bucket's own backing array: valid until slot
// now+len(ring) is filed, i.e. for the rest of the current slot.
func (c *calendar[T]) take(now int64) []T {
	b := &c.ring[now%int64(len(c.ring))]
	out := *b
	*b = out[:0]
	c.count -= len(out)
	return out
}

// remove deletes every entry drop selects, keeping the order of the rest,
// and returns the deleted entries bucket by bucket. It walks the whole
// ring: faults, reroutes and resyncs use it, slots do not.
func (c *calendar[T]) remove(drop func(*T) bool) []T {
	var gone []T
	for i, b := range c.ring {
		kept := b[:0]
		for j := range b {
			if drop(&b[j]) {
				gone = append(gone, b[j])
			} else {
				kept = append(kept, b[j])
			}
		}
		c.ring[i] = kept
	}
	c.count -= len(gone)
	return gone
}

// each visits every entry, bucket by bucket.
func (c *calendar[T]) each(fn func(*T)) {
	for _, b := range c.ring {
		for j := range b {
			fn(&b[j])
		}
	}
}

// check verifies the calendar's own bookkeeping between slots: every entry
// sits in the bucket of its arrival slot, lands no earlier than now and no
// later than the ring can hold, and count is the sum of the bucket lengths.
func (c *calendar[T]) check(what string, now int64) error {
	total := 0
	for i, b := range c.ring {
		total += len(b)
		for _, v := range b {
			at := v.due()
			if at%int64(len(c.ring)) != int64(i) || at < now || at >= now+int64(len(c.ring)) {
				return fmt.Errorf("simnet: slot %d: %s due at slot %d filed in bucket %d of %d", now, what, at, i, len(c.ring))
			}
		}
	}
	if total != c.count {
		return fmt.Errorf("simnet: slot %d: %d %ss counted, buckets hold %d", now, c.count, what, total)
	}
	return nil
}
