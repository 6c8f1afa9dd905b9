package stance_test

import (
	"testing"

	"stance"
)

func TestFacadeOrderings(t *testing.T) {
	if len(stance.Orderings()) < 6 {
		t.Errorf("Orderings() = %v", stance.Orderings())
	}
	for _, name := range stance.Orderings() {
		if _, err := stance.OrderByName(name); err != nil {
			t.Errorf("OrderByName(%q): %v", name, err)
		}
	}
	if _, err := stance.OrderByName("bogus"); err == nil {
		t.Error("bogus ordering accepted")
	}
}

func TestFacadeMeshGenerators(t *testing.T) {
	pm := stance.PaperMesh()
	if pm.N != 30269 {
		t.Errorf("PaperMesh has %d vertices", pm.N)
	}
	if _, err := stance.GridMesh(5, 5, 0.1, 1); err != nil {
		t.Error(err)
	}
	if _, err := stance.AnnulusMesh(3, 10); err != nil {
		t.Error(err)
	}
	if _, err := stance.RandomGeometric(50, 0.2, 1); err != nil {
		t.Error(err)
	}
	if _, err := stance.GraphFromEdges(2, []stance.Edge{{U: 0, V: 1}}, nil); err != nil {
		t.Error(err)
	}
}

func TestFacadeEthernetModel(t *testing.T) {
	m := stance.Ethernet(1)
	if m.Latency <= 0 || m.Bandwidth <= 0 || !m.Multicast {
		t.Errorf("Ethernet model %+v", m)
	}
}
