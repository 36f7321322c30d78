package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"time"

	"diversefw/internal/impact"
	"diversefw/internal/trace"
)

// The text alias maps a policy's source, the JSON value a request
// carried it as, to its content address, so that a source seen before
// reaches its compilation without being unquoted, parsed or hashed
// again. Equal value bytes always decode to one source, and a parse is a
// function of its source alone, so an alias can be evicted but never
// goes stale; it is recorded only after the source parsed and compiled,
// so a source that fails either is never aliased.
const (
	// sourceAliasShare is the alias's share of CompileCacheBytes, as its
	// reciprocal: the compile cache keeps the rest, so the operator's
	// total stays what they configured.
	sourceAliasShare = 64
	// aliasCost is one alias entry's charge: its 32-byte key and 64-byte
	// value, with the entry, list element and map slot that hold them.
	aliasCost = 256
)

// sourceKeyTag opens every text-alias key's digest, so that no alias key
// equals a digest some other scheme takes over the same bytes.
const sourceKeyTag = "diversefw text alias: schema, JSON value\x00"

// SourceKey returns the text-alias key of a policy source: the sha256
// digest over a domain tag, the length-prefixed schema name, and value,
// the policy's JSON value exactly as the request carried it (a bare
// string token, escapes and all, or a {format, text, chain} object).
// Respelling a value (\u0026 for &, members reordered) gives another key
// for the same policy, which costs one miss, never a wrong answer.
func SourceKey(schema string, value []byte) string {
	h := sha256.New()
	var buf [len(sourceKeyTag) + binary.MaxVarintLen64]byte
	b := binary.AppendUvarint(append(buf[:0], sourceKeyTag...), uint64(len(schema)))
	h.Write(b)
	for s := schema; len(s) > 0; {
		n := copy(buf[:], s)
		h.Write(buf[:n])
		s = s[n:]
	}
	h.Write(value)
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
	ca, okA := e.resident(ctx, ka)
	cb, okB := e.resident(ctx, kb)
	if !okA || !okB {
		return d, false, nil
	}
	d.A, d.B = ca, cb
	e.compileHits(ctx, 2)
	d.Stats.CompileHits = 2
	return d, true, e.diffPair(ctx, &d, time.Since(start))
}

// DiffEditsSource is DiffEdits for the before policy whose source has
// key, without parsing or hashing it. When the alias holds key and its
// compilation is resident, ok is true and the edits apply to that
// compilation's policy, so only the edited policy is hashed. Otherwise
// ok is false, nothing ran, and no compile-cache lookup was counted: the
// caller parses, calls DiffEdits and records the alias.
func (e *Engine) DiffEditsSource(ctx context.Context, key string, edits []impact.Edit) (d EditDiff, ok bool, err error) {
	cb, ok := e.resident(ctx, key)
	// The edits apply to the entry's policy: an entry that holds none
	// (should compilations ever drop their policy to save memory) must
	// send the caller back to parsing.
	if !ok || cb.Policy == nil {
		return d, false, nil
	}
	ctx, sp := trace.Start(ctx, "impact.edits")
	defer sp.End()
	e.compileHits(ctx, 1)
	d, err = e.editFrom(ctx, sp, time.Now(), cb.Policy, cb, true, edits)
	return d, true, err
}

// resident is the one lookup from a source to its compilation, which
// DiffSources and DiffEditsSource share: the alias's content address for
// key, then that address's compile-cache entry, if it is still resident.
// It counts and records the alias lookup but not the compile-cache
// probe: a caller that uses what it found counts the hit (compileHits),
// so a source whose compilation was evicted counts only the lookup its
// fallback compile makes.
func (e *Engine) resident(ctx context.Context, key string) (*Compiled, bool) {
	hash, ok := e.SourceHash(ctx, key)
	if !ok {
		return nil, false
	}
	return e.compiled.lru.peek(hash)
}

// compileHits counts n compile-cache hits on compilations resident
// found, each with its cache-lookup event.
func (e *Engine) compileHits(ctx context.Context, n int) {
	e.compiled.lru.countHits(n)
	for range n {
		lookupEvent(ctx, cacheCompile, true)
	}
}

// lookupEvent records one cache lookup on the context's active span, and
// allocates nothing when the context carries none.
func lookupEvent(ctx context.Context, cache string, hit bool) {
	if sp := trace.Active(ctx); sp != nil {
		sp.AddCompleted("cache-lookup", time.Now(), 0, trace.A("cache", cache), trace.A("hit", hit))
	}
}
