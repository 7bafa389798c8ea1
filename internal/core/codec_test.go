package core

import (
	"bytes"
	"testing"
)

// The codec must round-trip the paper design losslessly: a second
// marshal of the decoded value reproduces the first byte for byte, and
// the decoded design hashes — and plans — identically.
func TestDesignCodecRoundTrip(t *testing.T) {
	d := paperDesign()
	data, err := MarshalDesign(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalDesign(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := MarshalDesign(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("codec round trip not stable:\n%s\nvs\n%s", data, data2)
	}
	h1, err := DesignHash(d)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := DesignHash(back)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("round trip changed the content hash: %s vs %s", h1, h2)
	}

	// The decoded design must plan bit-identically to the original.
	a, err := NewPlanner(d, 32, EqualWeights).CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlanner(back, 32, EqualWeights).CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Cost != b.Best.Cost || a.NEval != b.NEval ||
		a.Best.Partition.Key(nil) != b.Best.Partition.Key(nil) {
		t.Fatalf("decoded design plans differently: (%v, %d, %s) vs (%v, %d, %s)",
			a.Best.Cost, a.NEval, a.Best.Partition.Key(nil),
			b.Best.Cost, b.NEval, b.Best.Partition.Key(nil))
	}
}

// The content hash ignores the display name but reacts to any content
// change in the digital modules or analog cores.
func TestDesignHashSemantics(t *testing.T) {
	base := paperDesign()
	h0, err := DesignHash(base)
	if err != nil {
		t.Fatal(err)
	}

	renamed, err := CloneDesign(base)
	if err != nil {
		t.Fatal(err)
	}
	renamed.Name = "same-content-different-label"
	if h, _ := DesignHash(renamed); h != h0 {
		t.Error("renaming the design changed its content hash")
	}

	cases := map[string]func(*Design){
		"analog cycles":  func(d *Design) { d.Analog[0].Tests[0].Cycles++ },
		"scan chain":     func(d *Design) { d.Digital.Cores()[0].Scan[0]++ },
		"test patterns":  func(d *Design) { d.Digital.Cores()[0].Tests[0].Patterns++ },
		"dropped core":   func(d *Design) { d.Analog = d.Analog[:len(d.Analog)-1] },
		"analog tam use": func(d *Design) { d.Analog[1].Tests[0].TAMWidth++ },
	}
	for name, mutate := range cases {
		mutated, err := CloneDesign(base)
		if err != nil {
			t.Fatal(err)
		}
		mutate(mutated)
		h, err := DesignHash(mutated)
		if err != nil {
			t.Fatal(err)
		}
		if h == h0 {
			t.Errorf("%s: content change did not change the hash", name)
		}
	}

	// Clones share no pointers with the original.
	clone, err := CloneDesign(base)
	if err != nil {
		t.Fatal(err)
	}
	if clone.Digital == base.Digital || clone.Analog[0] == base.Analog[0] ||
		clone.Digital.Modules[0] == base.Digital.Modules[0] {
		t.Error("CloneDesign aliases the original")
	}
}

// Unmarshal rejects structurally invalid designs instead of letting
// them reach a planner.
func TestUnmarshalDesignValidates(t *testing.T) {
	if _, err := UnmarshalDesign([]byte(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	// Duplicate module IDs violate SOC invariants.
	bad := `{"digital":{"name":"x","modules":[{"id":1,"level":1,"inputs":1,"outputs":1,"bidirs":0},{"id":1,"level":1,"inputs":1,"outputs":1,"bidirs":0}]}}`
	if _, err := UnmarshalDesign([]byte(bad)); err == nil {
		t.Error("duplicate module IDs accepted")
	}
}
