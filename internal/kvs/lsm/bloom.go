package lsm

import "encoding/binary"

// bloom is a standard Bloom filter with double hashing (Kirsch-Mitzenmacher),
// ~10 bits per key / 7 probes, as RocksDB's full filters use.
type bloom struct {
	bits []byte
	k    uint32
}

// newBloom sizes a filter for n keys at bitsPerKey.
func newBloom(n int, bitsPerKey int) *bloom {
	if n < 1 {
		n = 1
	}
	nbits := n * bitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	k := uint32(float64(bitsPerKey) * 0.69) // ln 2
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return &bloom{bits: make([]byte, (nbits+7)/8), k: k}
}

func bloomHash(key []byte) (uint64, uint64) {
	var h1, h2 uint64 = 14695981039346656037, 1099511628211
	for _, b := range key {
		h1 = (h1 ^ uint64(b)) * 1099511628211
		h2 = h2*31 + uint64(b)
	}
	return h1, h2 | 1
}

// add inserts a key.
func (f *bloom) add(key []byte) {
	h, d := bloomHash(key)
	nbits := uint64(len(f.bits)) * 8
	for i := uint32(0); i < f.k; i++ {
		pos := h % nbits
		f.bits[pos/8] |= 1 << (pos % 8)
		h += d
	}
}

// mayContain reports whether the key is possibly present.
func (f *bloom) mayContain(key []byte) bool {
	h, d := bloomHash(key)
	nbits := uint64(len(f.bits)) * 8
	for i := uint32(0); i < f.k; i++ {
		pos := h % nbits
		if f.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += d
	}
	return true
}

// appendTo appends the serialized filter to dst.
func (f *bloom) appendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.bits)))
	dst = binary.LittleEndian.AppendUint32(dst, f.k)
	return append(dst, f.bits...)
}
