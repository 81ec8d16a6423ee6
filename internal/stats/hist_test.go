package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"cameo/internal/xrand"
)

func TestHistBasics(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty hist not zero")
	}
	for _, v := range []uint64{1, 2, 4, 8, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Max() != 100 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	if h.Mean() != 23 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistQuantileBounds(t *testing.T) {
	// Quantile returns an upper bound: every sample <= Quantile(1), and
	// quantiles are monotone in q.
	check := func(seed uint64) bool {
		var h Hist
		r := xrand.New(seed)
		var maxV uint64
		for i := 0; i < 200; i++ {
			v := uint64(r.Intn(100000))
			h.Observe(v)
			if v > maxV {
				maxV = v
			}
		}
		if h.Quantile(1) < maxV {
			return false
		}
		last := uint64(0)
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHistQuantileRoughAccuracy(t *testing.T) {
	var h Hist
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	// P50 of 1..1000 is ~500; the log2 bucket bound may stretch to 1023.
	p50 := h.Quantile(0.5)
	if p50 < 500 || p50 > 1023 {
		t.Fatalf("p50 bound = %d", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 990 || p99 > 1023 {
		t.Fatalf("p99 bound = %d", p99)
	}
}

func TestHistRender(t *testing.T) {
	var h Hist
	for i := 0; i < 100; i++ {
		h.Observe(uint64(i))
	}
	var sb strings.Builder
	h.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "samples=100") {
		t.Fatalf("summary missing:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("bars missing:\n%s", out)
	}
}

func TestHistZeroSample(t *testing.T) {
	var h Hist
	h.Observe(0)
	if h.Count() != 1 {
		t.Fatal("zero sample dropped")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatalf("p50 of {0} = %d", h.Quantile(0.5))
	}
}
