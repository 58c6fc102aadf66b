// Package slab recycles small per-query records. A sync.Pool alone
// allocates one record per miss, and a flash crowd misses once per query
// that goes live beside a thousand others; Pool allocates 64 records at a
// time instead, so a queue growing to depth N costs N/64 allocations.
package slab

import "sync"

// size is the number of records one miss allocates.
const size = 64

// Pool hands out *T. The zero value is ready to use. Get returns a record
// in whatever state its last Put left it, or zeroed when it is fresh from a
// slab; callers reset what they read. A slab stays reachable while any of
// its records is.
type Pool[T any] struct{ p sync.Pool }

// Get returns a pooled record, or on a miss allocates a slab, pools all
// but its first record and returns that one.
func (s *Pool[T]) Get() *T {
	if x, ok := s.p.Get().(*T); ok {
		return x
	}
	slab := new([size]T)
	for i := 1; i < size; i++ {
		s.p.Put(&slab[i])
	}
	return &slab[0]
}

// Put returns x to the pool.
func (s *Pool[T]) Put(x *T) { s.p.Put(x) }
