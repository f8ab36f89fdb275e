package mfg

import "testing"

// tiny builds a valid 2-layer MFG by hand:
//
//	seeds {0}; hop1 discovers nodes 1,2; hop2 discovers node 3.
func tiny() *MFG {
	return &MFG{
		Batch:   1,
		NodeIDs: []int32{10, 20, 30, 40}, // globals for locals 0..3
		Blocks: []Block{
			// Outer block: dst = {0,1,2}, src = {0..3}.
			{DstPtr: []int32{0, 1, 2, 3}, Src: []int32{1, 3, 0}, NumDst: 3, NumSrc: 4},
			// Inner block: dst = {0}, src = {0,1,2}.
			{DstPtr: []int32{0, 2}, Src: []int32{1, 2}, NumDst: 1, NumSrc: 3},
		},
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := tiny().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	m := tiny()
	if m.Layers() != 2 {
		t.Fatalf("Layers = %d", m.Layers())
	}
	if m.TotalNodes() != 4 {
		t.Fatalf("TotalNodes = %d", m.TotalNodes())
	}
	if m.TotalEdges() != 5 {
		t.Fatalf("TotalEdges = %d", m.TotalEdges())
	}
	b := &m.Blocks[1]
	if b.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", b.NumEdges())
	}
	ns := b.Neighbors(0)
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 2 {
		t.Fatalf("Neighbors(0) = %v", ns)
	}
}

func TestTransferBytes(t *testing.T) {
	m := tiny()
	// 4 nodes × 8 feats × 2 bytes = 64; labels 1×8 = 8;
	// edges (3+2)×8 = 40; dstPtr (4+2)×4 = 24. Total 136.
	if got := m.TransferBytes(8, 2); got != 136 {
		t.Fatalf("TransferBytes = %d, want 136", got)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []struct {
		name string
		fn   func(*MFG)
	}{
		{"no blocks", func(m *MFG) { m.Blocks = nil }},
		{"batch mismatch", func(m *MFG) { m.Batch = 2 }},
		{"nodeIDs short", func(m *MFG) { m.NodeIDs = m.NodeIDs[:2] }},
		{"dst>src", func(m *MFG) { m.Blocks[1].NumDst = 5; m.Blocks[1].DstPtr = []int32{0, 0, 0, 0, 1, 2} }},
		{"dstptr len", func(m *MFG) { m.Blocks[0].DstPtr = m.Blocks[0].DstPtr[:2] }},
		{"dstptr end", func(m *MFG) { m.Blocks[0].DstPtr[3] = 1 }},
		{"dstptr monotone", func(m *MFG) { m.Blocks[0].DstPtr = []int32{0, 2, 1, 3} }},
		{"src out of range", func(m *MFG) { m.Blocks[0].Src[0] = 9 }},
		{"src negative", func(m *MFG) { m.Blocks[0].Src[0] = -1 }},
		{"chain break", func(m *MFG) {
			m.Blocks[1].NumSrc = 2
			m.Blocks[1].Src = []int32{1, 1}
		}},
	}
	for _, mu := range mutations {
		m := tiny()
		mu.fn(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: corrupt MFG passed validation", mu.name)
		}
	}
}

func TestCloneDetachesStorage(t *testing.T) {
	m := &MFG{
		Blocks: []Block{{
			DstPtr: []int32{0, 2, 3},
			Src:    []int32{1, 2, 0},
			NumDst: 2,
			NumSrc: 3,
		}},
		NodeIDs: []int32{10, 11, 12},
		Batch:   2,
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	// Mutating the original must not affect the clone.
	m.NodeIDs[0] = 99
	m.Blocks[0].Src[0] = 2
	if c.NodeIDs[0] != 10 || c.Blocks[0].Src[0] != 1 {
		t.Fatal("clone aliases original storage")
	}
	if c.TotalNodes() != 3 || c.TotalEdges() != 3 || c.Batch != 2 {
		t.Fatalf("clone shape wrong: %d nodes %d edges", c.TotalNodes(), c.TotalEdges())
	}
}
