package slicing

import (
	"testing"

	"salient/internal/half"
	"salient/internal/rng"
	"salient/internal/tensor"
)

func makeFeatures(t testing.TB, n, dim int) ([]half.Float16, []int32) {
	t.Helper()
	r := rng.New(5)
	f32 := make([]float32, n*dim)
	for i := range f32 {
		f32[i] = float32(r.NormFloat64())
	}
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(r.Intn(10))
	}
	return half.EncodeSlice(make([]half.Float16, len(f32)), f32), labels
}

func TestSliceHalf(t *testing.T) {
	const n, dim = 100, 8
	feat, labels := makeFeatures(t, n, dim)
	nodeIDs := []int32{5, 99, 0, 42, 5}
	dst := NewPinned(2, dim, 2) // deliberately small: must grow
	if err := SliceHalf(dst, feat, dim, labels, nodeIDs, 3); err != nil {
		t.Fatal(err)
	}
	if dst.N != len(nodeIDs) || dst.Dim != dim {
		t.Fatalf("staged shape %dx%d", dst.N, dst.Dim)
	}
	for i, id := range nodeIDs {
		for j := 0; j < dim; j++ {
			if dst.H[i*dim+j] != feat[int(id)*dim+j] {
				t.Fatalf("row %d col %d mismatch", i, j)
			}
		}
	}
	for i := 0; i < 3; i++ {
		if dst.Labels[i] != labels[nodeIDs[i]] {
			t.Fatalf("label %d mismatch", i)
		}
	}
}

func TestSliceHalfBatchTooLarge(t *testing.T) {
	feat, labels := makeFeatures(t, 10, 4)
	dst := NewPinned(4, 4, 4)
	if err := SliceHalf(dst, feat, 4, labels, []int32{1, 2}, 3); err == nil {
		t.Fatal("batch > nodes accepted")
	}
}

func TestSliceHalfStripedMatchesSerial(t *testing.T) {
	const n, dim = 200, 16
	feat, labels := makeFeatures(t, n, dim)
	r := rng.New(9)
	nodeIDs := make([]int32, 77)
	for i := range nodeIDs {
		nodeIDs[i] = int32(r.Intn(n))
	}
	serial := NewPinned(1, dim, 1)
	if err := SliceHalf(serial, feat, dim, labels, nodeIDs, 10); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8, 100} {
		striped := NewPinned(1, dim, 1)
		err := SliceStriped(striped, NewSource(half.FromFP16(feat, dim, len(labels), half.FP16), labels), nodeIDs, 10, workers,
			func(stripes []func()) {
				for _, s := range stripes {
					s()
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.H {
			if striped.H[i] != serial.H[i] {
				t.Fatalf("workers=%d: feature %d differs", workers, i)
			}
		}
		for i := 0; i < 10; i++ {
			if striped.Labels[i] != serial.Labels[i] {
				t.Fatalf("workers=%d: label %d differs", workers, i)
			}
		}
	}
}

func TestDecodeFeatures(t *testing.T) {
	const n, dim = 20, 4
	feat, labels := makeFeatures(t, n, dim)
	nodeIDs := []int32{3, 9, 14}
	p := NewPinned(3, dim, 3)
	if err := SliceHalf(p, feat, dim, labels, nodeIDs, 3); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(3, dim)
	DecodeFeatures(x, p)
	for i, id := range nodeIDs {
		for j := 0; j < dim; j++ {
			want := feat[int(id)*dim+j].Float32()
			if x.At(i, j) != want {
				t.Fatalf("decode (%d,%d) = %v want %v", i, j, x.At(i, j), want)
			}
		}
	}
}

func TestDecodeShapePanics(t *testing.T) {
	p := NewPinned(3, 4, 3)
	p.N, p.Dim = 3, 4
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	DecodeFeatures(tensor.New(2, 4), p)
}

func TestPinnedBytes(t *testing.T) {
	feat, labels := makeFeatures(t, 10, 4)
	p := NewPinned(1, 4, 1)
	if err := SliceHalf(p, feat, 4, labels, []int32{1, 2, 3}, 2); err != nil {
		t.Fatal(err)
	}
	// 3 rows × 4 cols × 2B + 2 labels × 4B = 32.
	if got := p.Bytes(); got != 32 {
		t.Fatalf("Bytes = %d, want 32", got)
	}
}

func TestDecodeShapePanicsOnColumnMismatch(t *testing.T) {
	p := NewPinned(3, 4, 3)
	p.N, p.Dim = 3, 4
	defer func() {
		if recover() == nil {
			t.Fatal("column mismatch did not panic")
		}
	}()
	DecodeFeatures(tensor.New(3, 5), p)
}

// stridedSource stores rows reversed to prove the kernels only ever go
// through the Source interface, never assume the flat layout.
type stridedSource struct {
	m      *half.Matrix
	labels []int32
}

func (s stridedSource) Dim() int                  { return s.m.Dim }
func (s stridedSource) Precision() half.Precision { return s.m.Prec }
func (s stridedSource) Row(id int32) (*half.Matrix, int) {
	return s.m, s.m.N - 1 - int(id)
}
func (s stridedSource) Label(id int32) int32 { return s.labels[id] + 100 }

func TestSliceHonorsCustomSource(t *testing.T) {
	const n, dim = 50, 4
	feat, labels := makeFeatures(t, n, dim)
	rev := make([]half.Float16, len(feat))
	for v := 0; v < n; v++ {
		copy(rev[(n-1-v)*dim:(n-v)*dim], feat[v*dim:(v+1)*dim])
	}
	src := stridedSource{m: half.FromFP16(rev, dim, n, half.FP16), labels: labels}
	nodeIDs := []int32{7, 0, 49, 7}
	serial := NewPinned(1, dim, 1)
	if err := Slice(serial, src, nodeIDs, 2); err != nil {
		t.Fatal(err)
	}
	for i, id := range nodeIDs {
		for j := 0; j < dim; j++ {
			if serial.H[i*dim+j] != feat[int(id)*dim+j] {
				t.Fatalf("row %d col %d not read through the source", i, j)
			}
		}
	}
	for i := 0; i < 2; i++ {
		if serial.Labels[i] != labels[nodeIDs[i]]+100 {
			t.Fatalf("label %d not read through the source", i)
		}
	}
	striped := NewPinned(1, dim, 1)
	err := SliceStriped(striped, src, nodeIDs, 2, 3, func(stripes []func()) {
		for _, s := range stripes {
			s()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.H {
		if striped.H[i] != serial.H[i] {
			t.Fatalf("striped kernel diverged at scalar %d", i)
		}
	}
}

func BenchmarkSliceHalf1024x128(b *testing.B) {
	const n, dim = 1 << 16, 128
	feat, labels := makeFeatures(b, n, dim)
	r := rng.New(3)
	nodeIDs := make([]int32, 1024)
	for i := range nodeIDs {
		nodeIDs[i] = int32(r.Intn(n))
	}
	dst := NewPinned(1024, dim, 1024)
	b.SetBytes(int64(1024 * dim * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SliceHalf(dst, feat, dim, labels, nodeIDs, 1024); err != nil {
			b.Fatal(err)
		}
	}
}
