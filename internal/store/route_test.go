package store

import (
	"fmt"
	"testing"
)

// TestMaskRoutingMatchesModulo pins the power-of-two fast path to the
// modulo routing it replaces: h % n == h & (n-1) whenever n is a power of
// two, so the mask must never move an entity to a different shard.
func TestMaskRoutingMatchesModulo(t *testing.T) {
	u := testUniverse()
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		s := NewSharded(u, n)
		if !s.masked {
			t.Fatalf("shards=%d: mask fast path not enabled", n)
		}
		for i := 0; i < 2000; i++ {
			id := fmt.Sprintf("entity-%d-%d", n, i)
			want := int(fnv64a(id) % uint64(n))
			if got := s.shardIndex(id); got != want {
				t.Fatalf("shards=%d id=%s: mask route %d, modulo route %d", n, id, got, want)
			}
		}
	}
	for _, n := range []int{3, 5, 6, 7, 12, 13} {
		if s := NewSharded(u, n); s.masked {
			t.Fatalf("shards=%d: mask fast path wrongly enabled", n)
		}
	}
}

// routeSink defeats dead-code elimination in the routing benchmarks.
var routeSink int

// BenchmarkShardRouteModulo measures id routing through the generic
// modulo path (13 shards — not a power of two).
func BenchmarkShardRouteModulo(b *testing.B) {
	s := NewSharded(testUniverse(), 13)
	ids := benchIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routeSink = s.shardIndex(ids[i%len(ids)])
	}
}

// BenchmarkShardRouteMask measures the same routing through the
// power-of-two mask fast path (16 shards).
func BenchmarkShardRouteMask(b *testing.B) {
	s := NewSharded(testUniverse(), 16)
	ids := benchIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routeSink = s.shardIndex(ids[i%len(ids)])
	}
}

func benchIDs() []string {
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = fmt.Sprintf("worker-%06d", i)
	}
	return ids
}
