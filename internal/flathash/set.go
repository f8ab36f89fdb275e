package flathash

// Set is a flat hash set of int32 keys with the same swiss-table layout as
// Map. It backs the "sampling without replacement" dedup structure in the
// hash-set sampler variants.
type Set struct {
	ctrl []uint8
	keys []int32
	mask uint64
	size int
	grow int
}

// NewSet returns a set pre-sized for at least capacity elements.
func NewSet(capacity int) *Set {
	s := &Set{}
	s.init(normalizeCap(capacity))
	return s
}

func (s *Set) init(slots int) {
	s.ctrl = make([]uint8, slots+groupSize-1)
	for i := range s.ctrl {
		s.ctrl[i] = ctrlEmpty
	}
	s.keys = make([]int32, slots)
	s.mask = uint64(slots - 1)
	s.size = 0
	s.grow = slots * 7 / 8
}

// Len returns the number of elements.
func (s *Set) Len() int { return s.size }

// Contains reports whether key is in the set.
func (s *Set) Contains(key int32) bool {
	h := hash32(key)
	frag := h2(h)
	pos := h1(h) & s.mask
	for stride := uint64(0); ; {
		group := loadGroup(s.ctrl, pos)
		match := matchByte(group, frag)
		for match != 0 {
			bit := trailingBytes(match)
			idx := (pos + bit) & s.mask
			if s.keys[idx] == key && s.ctrl[idx] < 0x80 {
				return true
			}
			match &= match - 1
		}
		if matchEmpty(group) != 0 {
			return false
		}
		stride += groupSize
		pos = (pos + stride) & s.mask
	}
}

// Add inserts key and reports whether it was newly added (false if already
// present). This is the hot operation of without-replacement sampling.
func (s *Set) Add(key int32) bool {
	h := hash32(key)
	frag := h2(h)
	pos := h1(h) & s.mask
	var idx uint64
	for stride := uint64(0); ; {
		group := loadGroup(s.ctrl, pos)
		match := matchByte(group, frag)
		for match != 0 {
			bit := trailingBytes(match)
			idx := (pos + bit) & s.mask
			if s.keys[idx] == key && s.ctrl[idx] < 0x80 {
				return false
			}
			match &= match - 1
		}
		if empty := matchEmpty(group); empty != 0 {
			idx = (pos + trailingBytes(empty)) & s.mask
			break
		}
		stride += groupSize
		pos = (pos + stride) & s.mask
	}
	if s.size >= s.grow {
		s.rehash()
		return s.Add(key)
	}
	s.setCtrl(idx, frag)
	s.keys[idx] = key
	s.size++
	return true
}

func (s *Set) setCtrl(idx uint64, c uint8) {
	s.ctrl[idx] = c
	if idx < groupSize-1 {
		s.ctrl[uint64(len(s.keys))+idx] = c
	}
}

// Reset clears the set for reuse without releasing memory.
func (s *Set) Reset() {
	for i := range s.ctrl {
		s.ctrl[i] = ctrlEmpty
	}
	s.size = 0
}

func (s *Set) rehash() {
	oldCtrl, oldKeys := s.ctrl, s.keys
	s.init(2 * len(oldKeys))
	for i := range oldKeys {
		if oldCtrl[i] < 0x80 {
			s.Add(oldKeys[i])
		}
	}
}
