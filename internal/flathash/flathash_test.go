package flathash

import (
	"testing"
	"testing/quick"

	"salient/internal/rng"
)

func TestMapBasic(t *testing.T) {
	m := NewMap(4)
	if _, ok := m.Get(1); ok {
		t.Fatal("empty map claims to contain key")
	}
	m.Put(1, 10)
	m.Put(2, 20)
	if v, ok := m.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
	if v, ok := m.Get(2); !ok || v != 20 {
		t.Fatalf("Get(2) = %d,%v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	m.Put(1, 11) // overwrite
	if v, _ := m.Get(1); v != 11 {
		t.Fatalf("overwrite failed: %d", v)
	}
	if m.Len() != 2 {
		t.Fatalf("Len after overwrite = %d", m.Len())
	}
}

func TestMapGetOrInsert(t *testing.T) {
	m := NewMap(4)
	v, added := m.GetOrInsert(7, 100)
	if !added || v != 100 {
		t.Fatalf("first GetOrInsert = %d,%v", v, added)
	}
	v, added = m.GetOrInsert(7, 200)
	if added || v != 100 {
		t.Fatalf("second GetOrInsert = %d,%v; must return existing", v, added)
	}
}

func TestMapGrowth(t *testing.T) {
	m := NewMap(2)
	const n = 10000
	for i := int32(0); i < n; i++ {
		m.Put(i, i*2)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := int32(0); i < n; i++ {
		if v, ok := m.Get(i); !ok || v != i*2 {
			t.Fatalf("Get(%d) = %d,%v after growth", i, v, ok)
		}
	}
	if _, ok := m.Get(n); ok {
		t.Fatal("map contains never-inserted key")
	}
}

func TestMapReset(t *testing.T) {
	m := NewMap(8)
	for i := int32(0); i < 50; i++ {
		m.Put(i, i)
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	for i := int32(0); i < 50; i++ {
		if _, ok := m.Get(i); ok {
			t.Fatalf("key %d survived Reset", i)
		}
	}
	m.Put(3, 33)
	if v, ok := m.Get(3); !ok || v != 33 {
		t.Fatal("map unusable after Reset")
	}
}

func TestMapNegativeKeys(t *testing.T) {
	m := NewMap(4)
	m.Put(-1, 1)
	m.Put(-2147483648, 2)
	if v, ok := m.Get(-1); !ok || v != 1 {
		t.Fatalf("Get(-1) = %d,%v", v, ok)
	}
	if v, ok := m.Get(-2147483648); !ok || v != 2 {
		t.Fatalf("Get(min) = %d,%v", v, ok)
	}
}

func TestMapMatchesStdlib(t *testing.T) {
	// Property: a random operation sequence behaves like map[int32]int32.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := NewMap(2)
		ref := make(map[int32]int32)
		for op := 0; op < 2000; op++ {
			k := int32(r.Intn(300)) - 150
			switch r.Intn(4) {
			case 0:
				v := int32(r.Intn(1000))
				m.Put(k, v)
				ref[k] = v
			case 1:
				got, ok := m.Get(k)
				want, wok := ref[k]
				if ok != wok || (ok && got != want) {
					return false
				}
			case 2:
				if r.Intn(100) == 0 {
					m.Reset()
					clear(ref)
				}
			case 3:
				v := int32(r.Intn(1000))
				got, added := m.GetOrInsert(k, v)
				want, exists := ref[k]
				if exists {
					if added || got != want {
						return false
					}
				} else {
					if !added || got != v {
						return false
					}
					ref[k] = v
				}
			}
			if m.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSetBasic(t *testing.T) {
	s := NewSet(4)
	if s.Contains(5) {
		t.Fatal("empty set contains 5")
	}
	if !s.Add(5) {
		t.Fatal("first Add returned false")
	}
	if s.Add(5) {
		t.Fatal("duplicate Add returned true")
	}
	if !s.Contains(5) || s.Len() != 1 {
		t.Fatal("set state wrong after Add")
	}
}

func TestSetGrowth(t *testing.T) {
	s := NewSet(2)
	const n = 10000
	for i := int32(0); i < n; i++ {
		if !s.Add(i * 3) {
			t.Fatalf("Add(%d) duplicate on fresh key", i*3)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := int32(0); i < n; i++ {
		if !s.Contains(i * 3) {
			t.Fatalf("lost key %d after growth", i*3)
		}
		if s.Contains(i*3 + 1) {
			t.Fatalf("phantom key %d", i*3+1)
		}
	}
}

func TestSetMatchesStdlib(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := NewSet(2)
		ref := make(map[int32]bool)
		for op := 0; op < 2000; op++ {
			k := int32(r.Intn(200)) - 100
			switch r.Intn(3) {
			case 0:
				got := s.Add(k)
				want := !ref[k]
				ref[k] = true
				if got != want {
					return false
				}
			case 1:
				if s.Contains(k) != ref[k] {
					return false
				}
			case 2:
				if r.Intn(100) == 0 {
					s.Reset()
					clear(ref)
				}
			}
			if s.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSetReset(t *testing.T) {
	s := NewSet(4)
	for i := int32(0); i < 100; i++ {
		s.Add(i)
	}
	s.Reset()
	if s.Len() != 0 || s.Contains(1) {
		t.Fatal("Reset did not clear set")
	}
	if !s.Add(1) {
		t.Fatal("set unusable after Reset")
	}
}

func BenchmarkMapGetOrInsertDense(b *testing.B) {
	r := rng.New(1)
	keys := make([]int32, 4096)
	for i := range keys {
		keys[i] = int32(r.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMap(4096)
		for j, k := range keys {
			m.GetOrInsert(k, int32(j))
		}
	}
}

func BenchmarkStdlibMapInsertDense(b *testing.B) {
	r := rng.New(1)
	keys := make([]int32, 4096)
	for i := range keys {
		keys[i] = int32(r.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := make(map[int32]int32, 4096)
		for j, k := range keys {
			if _, ok := m[k]; !ok {
				m[k] = int32(j)
			}
		}
	}
}

func BenchmarkSetAddHit(b *testing.B) {
	s := NewSet(1024)
	for i := int32(0); i < 1024; i++ {
		s.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(int32(i & 1023))
	}
}
