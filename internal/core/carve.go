package core

import "unsafe"

// maxChunk is the largest allocation a chunk takes: the allocator's
// largest small-object class, as for peer slabs — past it every chunk
// would take the large-object path, which measured slower than the
// per-slice allocations the chunks replace. minChunk is the smallest: a
// host whose INFO changes a handful of times in a run cuts each version's
// one-run advertisement from its first chunk. ownAlloc is the request
// size above which carving stops paying: the allocation a chunk saves is
// amortised over at least that many bytes anyway, and a request that
// large would strand up to its own size at a chunk's end.
const (
	maxChunk = 32 << 10
	minChunk = 128
	ownAlloc = maxChunk / 4
)

// chunk hands out slices carved front to back from allocations of its
// own, for what a host sends or keeps and never writes again: kept
// payloads (keep), the INFO advertisement (advert) and the parts of
// bundles and sync responses. The first allocation holds the first
// request, or minChunk bytes if that is more, and each later one
// doubles, up to maxChunk bytes; a request over ownAlloc bytes gets an
// allocation to itself. Every slice has its capacity cut to its length,
// so an append by whoever holds it cannot reach its neighbour. Nothing
// is recycled: an allocation is the garbage collector's once every slice
// carved from it is (DESIGN decision 12). The value is the latest
// allocation — length what is carved of it, capacity its size — so a
// chunk costs a host one slice header.
type chunk[T any] []T

// carve returns n zero elements of the chunk, or of a new one.
func (c *chunk[T]) carve(n int) []T {
	b := *c
	if n > cap(b)-len(b) {
		size := int(unsafe.Sizeof(*new(T)))
		if n*size > ownAlloc {
			return make([]T, n)
		}
		b = make([]T, 0, min(max(2*cap(b), n, minChunk/size), maxChunk/size))
	}
	s := b[len(b) : len(b)+n : len(b)+n]
	*c = b[:len(b)+n]
	return s
}
