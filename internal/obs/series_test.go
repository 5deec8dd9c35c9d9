package obs

import "testing"

// TestSeriesRingBuffer fills a series past its fixed capacity: the oldest
// samples are evicted and the rest come back oldest-first.
func TestSeriesRingBuffer(t *testing.T) {
	s := NewRegistry().Series("occ", "node", "2")
	if _, _, ok := s.Last(); ok {
		t.Fatal("empty series must report not-ok")
	}
	const extra = 5
	for slot := int64(0); slot < seriesCapacity+extra; slot++ {
		s.Record(slot, slot*10)
	}
	slots, vals := s.Samples()
	if len(slots) != seriesCapacity {
		t.Fatalf("retained %d samples, want %d", len(slots), seriesCapacity)
	}
	for i := range slots {
		if want := int64(i + extra); slots[i] != want || vals[i] != want*10 {
			t.Fatalf("sample %d = (%d,%d), want (%d,%d)",
				i, slots[i], vals[i], want, want*10)
		}
	}
	slot, v, ok := s.Last()
	if want := int64(seriesCapacity + extra - 1); !ok || slot != want || v != want*10 {
		t.Fatalf("Last = (%d,%d,%v), want (%d,%d,true)", slot, v, ok, want, want*10)
	}
}

// TestSeriesDefaultCapacity checks that every series keeps the default
// seriesCapacity samples, whatever its labels, and that the series of one
// registry fill and evict independently of each other.
func TestSeriesDefaultCapacity(t *testing.T) {
	r := NewRegistry()
	bare, labelled := r.Series("x"), r.Series("x", "node", "1")
	for i := int64(0); i < seriesCapacity+5; i++ {
		bare.Record(i, i)
	}
	labelled.Record(7, 70)
	slots, _ := bare.Samples()
	if len(slots) != seriesCapacity {
		t.Fatalf("retained %d, want %d", len(slots), seriesCapacity)
	}
	if slots[0] != 5 {
		t.Fatalf("oldest retained slot = %d, want 5", slots[0])
	}
	if slots, vals := labelled.Samples(); len(slots) != 1 || slots[0] != 7 || vals[0] != 70 {
		t.Fatalf("labelled series = (%v,%v), want ([7],[70])", slots, vals)
	}
}
