package nn

import (
	"bytes"
	"testing"

	"salient/internal/rng"
)

func twoModels() (Model, Model) {
	cfg := ModelConfig{In: 8, Hidden: 16, Out: 4, Layers: 2, Seed: 1}
	a := NewGraphSAGE(cfg)
	cfg.Seed = 99 // different init
	b := NewGraphSAGE(cfg)
	return a, b
}

func TestCheckpointRoundTrip(t *testing.T) {
	a, b := twoModels()
	// Perturb a's weights so they differ from any fresh init.
	r := rng.New(5)
	for _, p := range a.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += r.Float32()
		}
	}
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, b.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range a.Params() {
		if d := p.W.MaxAbsDiff(b.Params()[i].W); d != 0 {
			t.Fatalf("param %s differs by %v after restore", p.Name, d)
		}
	}
}

func TestCheckpointRejectsMismatchedModel(t *testing.T) {
	a, _ := twoModels()
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	other := NewGraphSAGE(ModelConfig{In: 8, Hidden: 32, Out: 4, Layers: 2, Seed: 1})
	if err := LoadParams(bytes.NewReader(buf.Bytes()), other.Params()); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	gat := NewGAT(ModelConfig{In: 8, Hidden: 16, Out: 4, Layers: 2, Seed: 1})
	if err := LoadParams(bytes.NewReader(buf.Bytes()), gat.Params()); err == nil {
		t.Fatal("wrong architecture accepted")
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	a, b := twoModels()
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x55
	if err := LoadParams(bytes.NewReader(raw), b.Params()); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}
	if err := LoadParams(bytes.NewReader(raw[:8]), b.Params()); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}
