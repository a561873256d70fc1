package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	g, err := Geomean([]float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-2) > 1e-12 {
		t.Errorf("Geomean(1,4) = %v, want 2", g)
	}
	g, err = Geomean([]float64{2, 2, 2})
	if err != nil || g != 2 {
		t.Errorf("Geomean(2,2,2) = %v, %v", g, err)
	}
}

func TestGeomeanErrors(t *testing.T) {
	if _, err := Geomean(nil); err == nil {
		t.Error("Geomean(nil) should error")
	}
	if _, err := Geomean([]float64{1, 0}); err == nil {
		t.Error("Geomean with zero should error")
	}
	if _, err := Geomean([]float64{1, -2}); err == nil {
		t.Error("Geomean with negative should error")
	}
}

func TestMustGeomeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGeomean(nil) did not panic")
		}
	}()
	MustGeomean(nil)
}

func TestGeomeanBounds(t *testing.T) {
	// Property: min <= geomean <= max for positive inputs.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r%1000) + 1
		}
		g := MustGeomean(xs)
		return g >= Min(xs)-1e-9 && g <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeomeanScaleInvariance(t *testing.T) {
	// Property: geomean(k*xs) = k*geomean(xs).
	f := func(raw []uint8, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		k := float64(kRaw%9) + 1
		xs := make([]float64, len(raw))
		scaled := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r%100) + 1
			scaled[i] = xs[i] * k
		}
		a := MustGeomean(xs) * k
		b := MustGeomean(scaled)
		return math.Abs(a-b) < 1e-6*math.Abs(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestImprovementPct(t *testing.T) {
	if got := ImprovementPct(1.2994); math.Abs(got-29.94) > 1e-9 {
		t.Errorf("ImprovementPct(1.2994) = %v, want 29.94", got)
	}
	if got := ImprovementPct(1); got != 0 {
		t.Errorf("ImprovementPct(1) = %v, want 0", got)
	}
	if got := ImprovementPct(0.5); got != -50 {
		t.Errorf("ImprovementPct(0.5) = %v, want -50", got)
	}
}

func TestAvailability(t *testing.T) {
	if got := Availability(0, 0); got != 1 {
		t.Errorf("Availability(0, 0) = %v, want 1 (nothing was unavailable)", got)
	}
	if got := Availability(99, 1); got != 0.99 {
		t.Errorf("Availability(99, 1) = %v, want 0.99", got)
	}
	if got := Availability(0, 5); got != 0 {
		t.Errorf("Availability(0, 5) = %v, want 0", got)
	}
}

func TestPer(t *testing.T) {
	if got := Per(3, 0); got != 0 {
		t.Errorf("Per(3, 0) = %v, want 0", got)
	}
	if got := Per(6, 4); got != 1.5 {
		t.Errorf("Per(6, 4) = %v, want 1.5", got)
	}
	if got := Per(0, 9); got != 0 {
		t.Errorf("Per(0, 9) = %v, want 0", got)
	}
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Mean(xs) != 2 {
		t.Errorf("Mean = %v, want 2", Mean(xs))
	}
	if Min(xs) != 1 {
		t.Errorf("Min = %v, want 1", Min(xs))
	}
	if Max(xs) != 3 {
		t.Errorf("Max = %v, want 3", Max(xs))
	}
	if Mean(nil) != 0 {
		t.Errorf("Mean(nil) = %v, want 0", Mean(nil))
	}
}
