package service

import (
	"encoding/json"
	"math"
	"testing"

	"elpc/internal/gen"
	"elpc/internal/model"
)

func buildSuiteProblem(t testing.TB, i int) *model.Problem {
	t.Helper()
	p, err := gen.Suite20()[i].Build()
	if err != nil {
		t.Fatalf("building suite case %d: %v", i, err)
	}
	return p
}

func TestHashDeterministic(t *testing.T) {
	a := buildSuiteProblem(t, 0)
	b := buildSuiteProblem(t, 0)
	ha, err := Hash(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := Hash(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("independently built identical problems hash differently: %s vs %s", ha, hb)
	}
	if len(ha) != 64 {
		t.Errorf("hash %q is not hex SHA-256", ha)
	}
}

func TestHashSurvivesJSONRoundTrip(t *testing.T) {
	p := buildSuiteProblem(t, 1)
	before, err := Hash(p)
	if err != nil {
		t.Fatal(err)
	}
	netJSON, err := json.Marshal(p.Net)
	if err != nil {
		t.Fatal(err)
	}
	pipeJSON, err := json.Marshal(p.Pipe)
	if err != nil {
		t.Fatal(err)
	}
	var net model.Network
	var pipe model.Pipeline
	if err := json.Unmarshal(netJSON, &net); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(pipeJSON, &pipe); err != nil {
		t.Fatal(err)
	}
	after, err := Hash(&model.Problem{Net: &net, Pipe: &pipe, Src: p.Src, Dst: p.Dst, Cost: p.Cost})
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("hash changed across JSON round trip: %s vs %s", before, after)
	}
}

// cloneProblem deep-copies a problem so a test can mutate any field.
func cloneProblem(p *model.Problem) *model.Problem {
	pipe := *p.Pipe
	pipe.Modules = append([]model.Module(nil), p.Pipe.Modules...)
	return &model.Problem{Net: p.Net.Clone(), Pipe: &pipe, Src: p.Src, Dst: p.Dst, Cost: p.Cost}
}

// fieldMutations changes one field of the canonical form each: every field
// Hash writes, in the order it writes them.
var fieldMutations = map[string]func(p *model.Problem){
	"node count": func(p *model.Problem) {
		p.Net.Nodes = append(p.Net.Nodes, model.Node{ID: model.NodeID(len(p.Net.Nodes)), Power: 1})
	},
	"node id":     func(p *model.Problem) { p.Net.Nodes[1].ID = 7 },
	"node name":   func(p *model.Problem) { p.Net.Nodes[0].Name += "x" },
	"power":       func(p *model.Problem) { p.Net.Nodes[0].Power *= 2 },
	"link count":  func(p *model.Problem) { p.Net.Links = p.Net.Links[:len(p.Net.Links)-1] },
	"link id":     func(p *model.Problem) { p.Net.Links[1].ID = 7 },
	"link from":   func(p *model.Problem) { p.Net.Links[0].From = (p.Net.Links[0].From + 1) % model.NodeID(p.Net.N()) },
	"link to":     func(p *model.Problem) { p.Net.Links[0].To = (p.Net.Links[0].To + 1) % model.NodeID(p.Net.N()) },
	"bandwidth":   func(p *model.Problem) { p.Net.Links[0].BWMbps *= 2 },
	"mld":         func(p *model.Problem) { p.Net.Links[0].MLDms += 0.5 },
	"module id":   func(p *model.Problem) { p.Pipe.Modules[1].ID = 7 },
	"module name": func(p *model.Problem) { p.Pipe.Modules[1].Name += "x" },
	"complexity":  func(p *model.Problem) { p.Pipe.Modules[1].Complexity *= 2 },
	"in bytes":    func(p *model.Problem) { p.Pipe.Modules[1].InBytes *= 2 },
	"out bytes":   func(p *model.Problem) { p.Pipe.Modules[1].OutBytes *= 2 },
	"src":         func(p *model.Problem) { p.Src = (p.Src + 1) % model.NodeID(p.Net.N()) },
	"dst":         func(p *model.Problem) { p.Dst = (p.Dst + 1) % model.NodeID(p.Net.N()) },
	"endpoints":   func(p *model.Problem) { p.Src, p.Dst = p.Dst, p.Src },
	"cost":        func(p *model.Problem) { p.Cost.IncludeMLDInDelay = !p.Cost.IncludeMLDInDelay },
}

func TestHashDiscriminates(t *testing.T) {
	base := buildSuiteProblem(t, 0)
	baseHash, err := Hash(base)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range fieldMutations {
		p := cloneProblem(base)
		mutate(p)
		h, err := Hash(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == baseHash {
			t.Errorf("mutation %q did not change the hash", name)
		}
	}
}

// TestStructuralHashCapacityBlind pins the similarity tier's key: node
// power and link bandwidth never change it, and any change to topology,
// MLD, the pipeline, the endpoints or the cost flag does.
func TestStructuralHashCapacityBlind(t *testing.T) {
	base := buildSuiteProblem(t, 0)
	baseHash, err := StructuralHash(base)
	if err != nil {
		t.Fatal(err)
	}
	if exact, _ := Hash(base); exact == baseHash {
		t.Fatal("structural and exact hashes share a key space")
	}
	// Besides capacities, the structural form leaves out what only labels
	// nodes and links: names, and IDs, which validation makes positions.
	blind := map[string]bool{"power": true, "bandwidth": true, "node id": true, "node name": true, "link id": true}
	for name, mutate := range fieldMutations {
		p := cloneProblem(base)
		mutate(p)
		h, err := StructuralHash(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if same := h == baseHash; same != blind[name] {
			t.Errorf("mutation %q: structural hash unchanged = %v, want %v", name, same, blind[name])
		}
	}
	// Any capacity values at all, as residual snapshots produce.
	p := cloneProblem(base)
	for i := range p.Net.Nodes {
		p.Net.Nodes[i].Power *= 0.25 + float64(i%3)
	}
	for i := range p.Net.Links {
		p.Net.Links[i].BWMbps *= 0.5 + float64(i%5)
	}
	if h, err := StructuralHash(p); err != nil || h != baseHash {
		t.Errorf("rescaled capacities: %s, %v; want %s", h, err, baseHash)
	}
}

// TestStructuralHashRejectsNonFinite: NaN and ±Inf have no canonical form,
// so both hashes refuse them wherever they hash the field.
func TestStructuralHashRejectsNonFinite(t *testing.T) {
	base := buildSuiteProblem(t, 0)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, set := range map[string]func(p *model.Problem){
			"mld":        func(p *model.Problem) { p.Net.Links[2].MLDms = v },
			"complexity": func(p *model.Problem) { p.Pipe.Modules[1].Complexity = v },
			"out bytes":  func(p *model.Problem) { p.Pipe.Modules[0].OutBytes = v },
		} {
			p := cloneProblem(base)
			set(p)
			if _, err := StructuralHash(p); err == nil {
				t.Errorf("StructuralHash accepted %s = %v", name, v)
			}
			if _, err := Hash(p); err == nil {
				t.Errorf("Hash accepted %s = %v", name, v)
			}
		}
		p := cloneProblem(base)
		p.Net.Nodes[0].Power = v
		p.Net.Links[0].BWMbps = v
		if _, err := Hash(p); err == nil {
			t.Errorf("Hash accepted power and bandwidth %v", v)
		}
		if _, err := StructuralHash(p); err != nil {
			t.Errorf("StructuralHash hashed a capacity field: %v", err)
		}
	}
}

func TestHashRejectsIncompleteProblem(t *testing.T) {
	if _, err := Hash(nil); err == nil {
		t.Error("Hash(nil) succeeded")
	}
	if _, err := Hash(&model.Problem{}); err == nil {
		t.Error("Hash of empty problem succeeded")
	}
}
