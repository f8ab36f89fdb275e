// Package flathash implements flat, open-addressing hash containers in the
// style of Abseil's "swiss tables" (Benzaquen et al., 2018), specialized for
// int32 keys (graph node IDs).
//
// The paper's single most impactful sampler optimization (§4.1) is replacing
// the C++ STL chained hash map/set with a flat swiss-table layout, worth ~2×
// end-to-end on neighborhood sampling. These containers are that layout:
//
//   - one contiguous control-byte array holding a 7-bit hash fragment per
//     slot (or an empty marker), scanned in groups of 8 via
//     word-parallel byte tricks;
//   - one contiguous slot array holding keys (and values for Map), so a probe
//     touches at most two cache lines per group.
package flathash

import "math/bits"

const (
	ctrlEmpty = 0x80 // high bit set, low bits zero
	groupSize = 8

	loBits = 0x0101010101010101
	hiBits = 0x8080808080808080
)

// hash32 mixes a 32-bit key into 64 well-distributed bits (a finalizer in the
// murmur3/splitmix family).
func hash32(k int32) uint64 {
	x := uint64(uint32(k))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// h1 returns the probe position seed; h2 returns the 7-bit control fragment.
func h1(h uint64) uint64 { return h >> 7 }
func h2(h uint64) uint8  { return uint8(h & 0x7f) }

// matchByte returns a bitmask (one bit per byte, at the byte's low bit
// position) of bytes in group equal to b.
func matchByte(group uint64, b uint8) uint64 {
	x := group ^ (loBits * uint64(b))
	return (x - loBits) & ^x & hiBits
}

// matchEmpty returns the mask of empty control bytes in group. Full bytes
// hold a 7-bit fragment and there are no tombstones, so a set high bit
// means empty.
func matchEmpty(group uint64) uint64 {
	return group & hiBits
}

// Map is a flat hash map from int32 keys to int32 values. The zero value is
// not ready for use; call NewMap.
//
// It is the "global-to-local node ID" structure used during sampled
// message-flow-graph construction: key = global node ID, value = local index.
type Map struct {
	ctrl []uint8
	keys []int32
	vals []int32
	mask uint64 // len(slots)-1; capacity is a power of two
	size int
	grow int // insertion budget before rehash (load factor 7/8)
}

// NewMap returns a map pre-sized for at least capacity elements.
func NewMap(capacity int) *Map {
	m := &Map{}
	m.init(normalizeCap(capacity))
	return m
}

func normalizeCap(c int) int {
	n := groupSize
	for n*7/8 < c {
		n <<= 1
	}
	return n
}

func (m *Map) init(slots int) {
	m.ctrl = make([]uint8, slots+groupSize-1) // tail mirror for group loads
	for i := range m.ctrl {
		m.ctrl[i] = ctrlEmpty
	}
	m.keys = make([]int32, slots)
	m.vals = make([]int32, slots)
	m.mask = uint64(slots - 1)
	m.size = 0
	m.grow = slots * 7 / 8
}

// Len returns the number of entries.
func (m *Map) Len() int { return m.size }

// loadGroup reads 8 control bytes starting at i (the ctrl array has a
// groupSize-1 tail so this never goes out of bounds).
func loadGroup(ctrl []uint8, i uint64) uint64 {
	b := ctrl[i : i+groupSize : i+groupSize]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Get returns the value for key and whether it is present.
func (m *Map) Get(key int32) (int32, bool) {
	h := hash32(key)
	frag := h2(h)
	pos := h1(h) & m.mask
	for stride := uint64(0); ; {
		group := loadGroup(m.ctrl, pos)
		match := matchByte(group, frag)
		for match != 0 {
			bit := trailingBytes(match)
			idx := (pos + bit) & m.mask
			if m.keys[idx] == key && m.ctrl[idx] < 0x80 {
				return m.vals[idx], true
			}
			match &= match - 1
		}
		if matchEmpty(group) != 0 {
			return 0, false
		}
		stride += groupSize
		pos = (pos + stride) & m.mask
	}
}

// trailingBytes converts the lowest set bit of a byte-mask (bits at positions
// 7, 15, 23, ...) into a byte offset 0..7.
func trailingBytes(mask uint64) uint64 {
	// The mask has bits only at positions 8k+7. Find the lowest set bit index
	// and divide by 8.
	return uint64(bits.TrailingZeros64(mask)) / 8
}

// GetOrInsert returns the existing value for key, or inserts val and returns
// it. added reports whether an insertion happened. This fused operation is
// the hot path of MFG construction: "have we already assigned this global ID
// a local index?".
func (m *Map) GetOrInsert(key, val int32) (got int32, added bool) {
	h := hash32(key)
	frag := h2(h)
	pos := h1(h) & m.mask
	var idx uint64
	for stride := uint64(0); ; {
		group := loadGroup(m.ctrl, pos)
		match := matchByte(group, frag)
		for match != 0 {
			bit := trailingBytes(match)
			idx := (pos + bit) & m.mask
			if m.keys[idx] == key && m.ctrl[idx] < 0x80 {
				return m.vals[idx], false
			}
			match &= match - 1
		}
		if empty := matchEmpty(group); empty != 0 {
			idx = (pos + trailingBytes(empty)) & m.mask
			break
		}
		stride += groupSize
		pos = (pos + stride) & m.mask
	}
	if m.size >= m.grow {
		m.rehash()
		return m.GetOrInsert(key, val)
	}
	m.setCtrl(idx, frag)
	m.keys[idx] = key
	m.vals[idx] = val
	m.size++
	return val, true
}

// Put sets key to val, inserting if absent.
func (m *Map) Put(key, val int32) {
	if _, added := m.GetOrInsert(key, val); !added {
		// Overwrite existing entry.
		h := hash32(key)
		frag := h2(h)
		pos := h1(h) & m.mask
		for stride := uint64(0); ; {
			group := loadGroup(m.ctrl, pos)
			match := matchByte(group, frag)
			for match != 0 {
				bit := trailingBytes(match)
				idx := (pos + bit) & m.mask
				if m.keys[idx] == key && m.ctrl[idx] < 0x80 {
					m.vals[idx] = val
					return
				}
				match &= match - 1
			}
			stride += groupSize
			pos = (pos + stride) & m.mask
		}
	}
}

// setCtrl writes the control byte at idx, mirroring into the tail region so
// wrap-around group loads see consistent bytes.
func (m *Map) setCtrl(idx uint64, c uint8) {
	m.ctrl[idx] = c
	if idx < groupSize-1 {
		m.ctrl[uint64(len(m.keys))+idx] = c
	}
}

// Reset clears the map for reuse without releasing memory. This is the
// per-mini-batch reuse path: SALIENT worker threads recycle their ID maps
// across batches to avoid allocation churn.
func (m *Map) Reset() {
	for i := range m.ctrl {
		m.ctrl[i] = ctrlEmpty
	}
	m.size = 0
}

func (m *Map) rehash() {
	oldCtrl, oldKeys, oldVals := m.ctrl, m.keys, m.vals
	m.init(2 * len(oldKeys))
	for i := range oldKeys {
		if oldCtrl[i] < 0x80 {
			m.GetOrInsert(oldKeys[i], oldVals[i])
		}
	}
}
