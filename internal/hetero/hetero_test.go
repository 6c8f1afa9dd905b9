package hetero

import (
	"math"
	"testing"
)

func TestUniform(t *testing.T) {
	env := Uniform(4)
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
	if env.P() != 4 {
		t.Fatalf("P = %d", env.P())
	}
	for r := 0; r < 4; r++ {
		if f := env.WorkFactor(r, 0); f != 1 {
			t.Errorf("WorkFactor(%d) = %v, want 1", r, f)
		}
	}
}

func TestPaperAdaptive(t *testing.T) {
	env := PaperAdaptive(5, 3)
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
	if f := env.WorkFactor(0, 0); f != 3 {
		t.Errorf("loaded workstation factor = %v, want 3", f)
	}
	if f := env.WorkFactor(0, 499); f != 3 {
		t.Errorf("load should persist (factor = %v)", f)
	}
	for r := 1; r < 5; r++ {
		if f := env.WorkFactor(r, 0); f != 1 {
			t.Errorf("unloaded workstation %d factor = %v", r, f)
		}
	}
}

func TestLoadWindow(t *testing.T) {
	env := Uniform(2)
	env.Loads = []Load{{Rank: 1, Factor: 2, FromIter: 10, UntilIter: 20}}
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		iter int
		want float64
	}{
		{0, 1}, {9, 1}, {10, 2}, {19, 2}, {20, 1}, {100, 1},
	}
	for _, c := range cases {
		if f := env.WorkFactor(1, c.iter); f != c.want {
			t.Errorf("iter %d: factor %v, want %v", c.iter, f, c.want)
		}
	}
}

func TestOverlappingLoadsMultiply(t *testing.T) {
	env := Uniform(1)
	env.Loads = []Load{
		{Rank: 0, Factor: 2, FromIter: 0, UntilIter: 0},
		{Rank: 0, Factor: 3, FromIter: 5, UntilIter: 10},
	}
	if f := env.WorkFactor(0, 7); f != 6 {
		t.Errorf("overlapping loads factor = %v, want 6", f)
	}
	if f := env.WorkFactor(0, 20); f != 2 {
		t.Errorf("after window factor = %v, want 2", f)
	}
}

func TestSpeedsAffectFactor(t *testing.T) {
	env := &Env{Speeds: []float64{1, 0.5, 2}}
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
	if f := env.WorkFactor(1, 0); f != 2 {
		t.Errorf("half-speed factor = %v, want 2", f)
	}
	if f := env.WorkFactor(2, 0); f != 0.5 {
		t.Errorf("double-speed factor = %v, want 0.5", f)
	}
	speeds := env.EffectiveSpeeds(0)
	want := []float64{1, 0.5, 2}
	for i := range want {
		if math.Abs(speeds[i]-want[i]) > 1e-12 {
			t.Errorf("EffectiveSpeeds[%d] = %v, want %v", i, speeds[i], want[i])
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []*Env{
		{},
		{Speeds: []float64{1, 0}},
		{Speeds: []float64{1}, Loads: []Load{{Rank: 5, Factor: 2}}},
		{Speeds: []float64{1}, Loads: []Load{{Rank: 0, Factor: 0.5}}},
		{Speeds: []float64{1}, Loads: []Load{{Rank: 0, Factor: 2, FromIter: 10, UntilIter: 5}}},
		// Non-finite values compare false against every bound, so each
		// needs its own check.
		{Speeds: []float64{1, math.NaN()}},
		{Speeds: []float64{math.Inf(1)}},
		{Speeds: []float64{math.Inf(-1)}},
		{Speeds: []float64{1}, Loads: []Load{{Rank: 0, Factor: math.NaN()}}},
		{Speeds: []float64{1}, Loads: []Load{{Rank: 0, Factor: math.Inf(1)}}},
	}
	for i, env := range cases {
		if err := env.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestChangePoints(t *testing.T) {
	env := Uniform(3)
	env.Loads = []Load{
		{Rank: 0, Factor: 2, FromIter: 10, UntilIter: 30},
		{Rank: 1, Factor: 2, FromIter: 20, UntilIter: 0},
		{Rank: 2, Factor: 2, FromIter: 10, UntilIter: 40},
	}
	got := env.ChangePoints()
	want := []int{10, 20, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("ChangePoints = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ChangePoints = %v, want %v", got, want)
		}
	}
	if pts := Uniform(2).ChangePoints(); len(pts) != 0 {
		t.Errorf("static env has change points %v", pts)
	}
}
