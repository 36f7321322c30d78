package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"time"

	"diversefw/internal/trace"
)

// The text alias maps a policy's source to its content address, so that a
// source seen before reaches its compilation without being parsed or
// hashed again. A parse is a function of the source alone, so an alias
// can be evicted but never goes stale; it is recorded only after the
// source parsed and compiled, so a source that fails either is never
// aliased.
const (
	// sourceAliasShare is the alias's share of CompileCacheBytes, as its
	// reciprocal: the compile cache keeps the rest, so the operator's
	// total stays what they configured.
	sourceAliasShare = 64
	// aliasCost is one alias entry's charge: its 32-byte key and 64-byte
	// value, with the entry, list element and map slot that hold them.
	aliasCost = 256
	// sourceChunk is how much text SourceKey copies per digest write.
	sourceChunk = 4 << 10
)

// SourceKey returns the text-alias key of a policy source: the sha256
// digest over its schema name, format, chain and text, each prefixed by
// its length, so that no two sources share a key by splitting one string
// differently. The text streams through one fixed buffer.
func SourceKey(schema, format, chain, text string) string {
	h := sha256.New()
	var buf [sourceChunk]byte
	for _, s := range [...]string{schema, format, chain, text} {
		h.Write(binary.AppendUvarint(buf[:0], uint64(len(s))))
		for len(s) > 0 {
			n := copy(buf[:], s)
			h.Write(buf[:n])
			s = s[n:]
		}
	}
	var sum [sha256.Size]byte
	return string(h.Sum(sum[:0]))
}

// SourceHash returns the content address the alias holds for the source
// with key, recording the lookup as a cache-lookup event with cache=text.
func (e *Engine) SourceHash(ctx context.Context, key string) (string, bool) {
	hash, ok := e.sources.get(key)
	lookupEvent(ctx, cacheSource, ok)
	return hash, ok
}

// AliasSource records that the source with key lowers to c's policy. Call
// it only with the compilation of the policy that source parsed to; a nil
// c (a failed parse or compile) records nothing.
func (e *Engine) AliasSource(key string, c *Compiled) {
	if c != nil {
		e.sources.add(key, c.Hash, aliasCost)
	}
}

// DiffSources diffs the two policies whose sources have keys ka and kb
// without parsing or hashing either. When the alias holds both keys and
// both compilations are resident, ok is true and d is the pair's diff:
// the report from the pair cache, or computed through Diff's one path,
// with Timing.Construct the time spent finding the two diagrams. Otherwise
// ok is false, nothing was diffed, and no compile-cache lookup was
// counted: the caller parses, calls DiffPair and records the aliases.
func (e *Engine) DiffSources(ctx context.Context, ka, kb string) (d PairDiff, ok bool, err error) {
	start := time.Now()
	ha, okA := e.SourceHash(ctx, ka)
	hb, okB := e.SourceHash(ctx, kb)
	if !okA || !okB {
		return d, false, nil
	}
	if d.A, d.B, ok = e.compiled.lru.getBoth(ha, hb); !ok {
		return PairDiff{}, false, nil
	}
	lookupEvent(ctx, cacheCompile, true)
	lookupEvent(ctx, cacheCompile, true)
	d.Stats.CompileHits = 2
	return d, true, e.diffPair(ctx, &d, time.Since(start))
}

// lookupEvent records one cache lookup on the context's active span, and
// allocates nothing when the context carries none.
func lookupEvent(ctx context.Context, cache string, hit bool) {
	if sp := trace.Active(ctx); sp != nil {
		sp.AddCompleted("cache-lookup", time.Now(), 0, trace.A("cache", cache), trace.A("hit", hit))
	}
}
