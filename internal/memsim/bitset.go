package memsim

// bitset is a fixed-capacity set of process ids, used to track cached
// copies under the CC model. Ids below 64 live inline, so machines of
// up to 64 processes allocate nothing per variable for it.
type bitset struct {
	lo    uint64   // ids 0..63
	hi    []uint64 // ids 64 and up; nil for nproc <= 64
	count int
}

func newBitset(n int) bitset {
	if n <= 64 {
		return bitset{}
	}
	return bitset{hi: make([]uint64, (n-64+63)/64)}
}

// word returns the storage word holding id i and i's bit in it.
func (b *bitset) word(i int) (*uint64, uint64) {
	m := uint64(1) << (uint(i) & 63)
	if i < 64 {
		return &b.lo, m
	}
	return &b.hi[(i-64)>>6], m
}

func (b *bitset) has(i int) bool {
	w, m := b.word(i)
	return *w&m != 0
}

func (b *bitset) add(i int) {
	w, m := b.word(i)
	if *w&m == 0 {
		*w |= m
		b.count++
	}
}

// hasOnly reports whether the set is exactly {i}.
func (b *bitset) hasOnly(i int) bool {
	return b.count == 1 && b.has(i)
}

func (b *bitset) clear() {
	if b.count == 0 {
		return
	}
	b.lo = 0
	for i := range b.hi {
		b.hi[i] = 0
	}
	b.count = 0
}
