package engine

// snapshot.go persists the canonical-tree cache across restarts.  The
// cache is what makes the serving story fast — isomorphic guests answer
// by remapping — but until now it evaporated on every deploy, so a
// restarted server paid the full cold-start stampede again.  Snapshot
// writes every cached embedding to a stream and Warm reads one back,
// re-validating each record before it may enter the cache.
//
// The format is line-oriented, versioned, and built from parts that
// already exist: the canonical code (the cache key) and the
// core.WriteResult / core.ReadResult embedding serialization.  A
// snapshot is one or more sections; each opens with the magic line and
// a profile line naming the strict mode and height its records were
// embedded with:
//
//	xtreesim-cache v1
//	profile strict=<bool> height=<h>
//	entry <canonical-code>
//	<core.WriteResult body, ending with assign lines>
//	end
//	entry ...
//	xtreesim-cache v1
//	profile ...
//
// Records are written in least-recently-used-first order, so warming
// replays the accesses and reproduces the LRU recency the snapshot saw;
// a new section opens wherever the profile changes along that order.
//
// Warm trusts nothing: a record whose embedding fails core.ReadResult's
// re-validation, whose guest no longer canonicalizes to the recorded
// code, or whose host is not the one its section's profile embeds into
// (the pinned height, or the optimal height when unpinned) is counted in
// WarmStats.Skipped and dropped — never fatal, because a stale or
// truncated snapshot must degrade to a cold start, not a crashed boot.
// A section with no profile line, or with one naming options no Profile
// produces, skips all its records: a cached result is only sound under
// the options it was computed with.
import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"xtreesim/internal/bintree"
	"xtreesim/internal/bitstr"
	"xtreesim/internal/core"
)

// snapshotMagic is the versioned header of one cache snapshot section.
const snapshotMagic = "xtreesim-cache v1"

// WarmStats reports what one Warm call did: Loaded records entered the
// cache, Skipped records were corrupt, stale, or profile-mismatched.
// Every record in the snapshot is counted exactly once.
type WarmStats struct {
	Loaded  int
	Skipped int
}

// ErrNoCache is returned by Snapshot and Warm on an engine whose cache
// is disabled (Config.CacheSize < 0): there is nothing to persist.
var errNoCache = fmt.Errorf("engine: caching disabled")

// profileLine renders the profile line of a section whose records were
// embedded with the given strict mode and height.
func profileLine(strict bool, height int) string {
	return fmt.Sprintf("profile strict=%t height=%d", strict, height)
}

// Snapshot writes every cached embedding to w in the v1 snapshot format
// and returns the number of records written.  The engine stays fully
// serviceable during the snapshot; entries cached after their shard was
// copied are simply not included.  An empty cache still writes one
// (empty) section, so the file stays a valid snapshot.
func (e *Engine) Snapshot(w io.Writer) (int, error) {
	if e.cache == nil {
		return 0, errNoCache
	}
	bw := bufio.NewWriter(w)
	cur := ""
	section := func(prof string) {
		fmt.Fprintln(bw, snapshotMagic)
		fmt.Fprintln(bw, prof)
		cur = prof
	}
	entries := e.cache.snapshotEntries()
	if len(entries) == 0 {
		opts := Profile{}.options()
		section(profileLine(opts.Strict, opts.Height))
	}
	for n, se := range entries {
		if prof := profileLine(se.ent.strict, se.ent.height); prof != cur {
			section(prof)
		}
		// A canonical code is the bintree encoding of the reordered
		// guest, so it decodes to a tree numbered in canonical
		// pre-order: its node i is the cached guest's node order[i].
		code := codeOf(se.key)
		guest, err := bintree.Decode(code)
		if err != nil {
			return n, err
		}
		res := &core.Result{Guest: guest, Host: se.ent.host, Assignment: make([]bitstr.Addr, len(se.ent.order))}
		for i, v := range se.ent.order {
			res.Assignment[i] = se.ent.assign[v]
		}
		fmt.Fprintf(bw, "entry %s\n", code)
		if err := core.WriteResult(bw, res); err != nil {
			return n, err
		}
		fmt.Fprintln(bw, "end")
	}
	return len(entries), bw.Flush()
}

// Warm reads a v1 snapshot of one or more sections from r and fills the
// cache with every record that survives validation, each under its own
// section's profile.  Individual bad records are skipped and counted,
// never fatal; only a missing/foreign header — a file that is not a
// snapshot at all — is an error.
func (e *Engine) Warm(r io.Reader) (WarmStats, error) {
	if e.cache == nil {
		return WarmStats{}, errNoCache
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26) // codes and node lists can be long
	if !sc.Scan() || sc.Text() != snapshotMagic {
		return WarmStats{}, fmt.Errorf("engine: bad or missing snapshot header")
	}
	var ws WarmStats
	count := func(loaded bool) {
		if loaded {
			ws.Loaded++
			e.warmLoaded.Add(1)
		} else {
			ws.Skipped++
			e.warmSkipped.Add(1)
		}
	}
	var (
		opts     core.Options // the current section's embedding options
		usable   bool         // whether this engine serves those options
		header   = true       // the next line may be the profile line
		code     string
		body     strings.Builder
		inRecord bool
	)
	for sc.Scan() {
		line := sc.Text()
		if header {
			header = false
			if opts, usable = sectionOptions(line); usable {
				continue
			}
		}
		switch {
		case line == snapshotMagic:
			// A new section while a record is open means that record
			// lost its "end" line (truncated write): count it skipped.
			if inRecord {
				inRecord = false
				count(false)
			}
			header, usable = true, false
		case strings.HasPrefix(line, "entry "):
			// Likewise for a new entry while one is open.
			if inRecord {
				count(false)
			}
			code = strings.TrimPrefix(line, "entry ")
			body.Reset()
			inRecord = true
		case line == "end":
			if inRecord {
				inRecord = false
				count(usable && e.warmRecord(opts, code, body.String()))
			}
		case inRecord:
			body.WriteString(line)
			body.WriteByte('\n')
		default:
			// Blank lines and garbage between records are tolerated: the
			// next "entry" line resynchronizes the parse.
		}
	}
	if err := sc.Err(); err != nil {
		return ws, err
	}
	// A record still open at EOF was truncated mid-write.
	if inRecord {
		count(false)
	}
	return ws, nil
}

// sectionOptions parses a section's profile line into the options its
// records were embedded with.  It reports false when the line is not
// exactly a profile line, or names a height no Profile resolves to
// (only -1, unpinned, and pinned heights above 0 exist): those records
// could never answer a lookup.
func sectionOptions(line string) (core.Options, bool) {
	var strict bool
	var height int
	if _, err := fmt.Sscanf(line, "profile strict=%t height=%d", &strict, &height); err != nil ||
		line != profileLine(strict, height) {
		return core.Options{}, false
	}
	opts := Profile{Strict: strict, Height: height}.options()
	return opts, opts.Height == height
}

// warmRecord validates one snapshot record embedded under opts and,
// when sound, inserts it into the cache under that profile's key.  It
// reports whether the record was loaded.
func (e *Engine) warmRecord(opts core.Options, code, body string) bool {
	if code == "" {
		return false
	}
	// ReadResult re-runs the invariant checker, so a corrupt or
	// hand-edited embedding cannot enter the cache.
	res, err := core.ReadResult(strings.NewReader(body))
	if err != nil {
		return false
	}
	// Stale guard: the guest must still canonicalize to the code the
	// record claims, or remapping onto future isomorphic guests would be
	// silently wrong.
	gotCode, order := res.Guest.CanonicalCode()
	if gotCode != code {
		return false
	}
	// A record answers only on the host its profile embeds into: the
	// pinned height, or the optimal height of the guest when unpinned.
	want := opts.Height
	if want < 0 {
		want = core.OptimalHeight(res.Guest.N())
	}
	if res.Host.Height() != want {
		return false
	}
	key := cacheKey(opts, code)
	e.cache.put(bintree.HashCode(key), key, newCacheEntry(res, order, opts))
	return true
}
