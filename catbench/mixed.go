package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"mcs"
	"mcs/internal/bench"
	"mcs/internal/core"
)

// The mixed workload is a Pegasus-style steady state: mixedClients
// closed-loop clients over JSON, with authorization enforced, each running
// the same seeded interleave of lookups, searches and single-file
// registrations, uniform over the catalog. Every registration commits, so
// the epoch caches rarely stay warm.
const (
	mixedBase       = 5000
	mixedClients    = 2
	mixedRoundsPerS = 75.0
	mixedWarmRounds = 40
	mixedAdminDN    = "/O=Grid/OU=Pegasus/CN=catalog-admin"
	mixedLoadBatch  = 500
	// mixedSearchAttrs predicates select one internal/bench value group:
	// mixedBase/50 base files plus the registrations made into it.
	mixedSearchAttrs = 2
)

// mixedRound is one round's interleave by kind: one call in ten a
// registration, one in ten a search, the rest lookups. Each round is
// shuffled anew from the seed, and both clients run the same order; over
// many rounds every position of a search after a write is sampled, so the
// seed does not set the share of searches that meet cold caches.
var mixedRound = []opKind{
	opCreate, opCreate, opSearch, opSearch,
	opGetFile, opGetFile, opGetFile, opGetFile, opGetFile, opGetFile, opGetFile, opGetFile,
	opGetAttrs, opGetAttrs, opGetAttrs, opGetAttrs, opGetAttrs, opGetAttrs, opGetAttrs, opGetAttrs,
}

type mixed struct {
	seed    int64
	base    int
	clients [mixedClients]*mixedClient
	f       *fabric
}

// mixedClient is one closed-loop client. Its n-th registration is
// pegasus-c<id>-<n>, in value group mixedGroup(seed, id, n).
type mixedClient struct {
	id  int
	dn  string
	rng *rand.Rand
	r   *runner
	// issued counts registrations sent; ackedPrefix counts those
	// acknowledged with none failed before them. Other clients read both.
	issued, ackedPrefix atomic.Int64
	acked               []core.FileSpec
	failedCreate        bool
}

func newMixed(seed int64, base int) *mixed {
	m := &mixed{seed: seed, base: base}
	for c := range m.clients {
		m.clients[c] = &mixedClient{
			id: c, dn: fmt.Sprintf("/O=Grid/OU=Pegasus/CN=worker-%d", c),
			rng: rand.New(rand.NewSource(seed*1000003 + int64(c) + 1)),
		}
	}
	return m
}

func (m *mixed) catalogOptions() core.Options {
	return core.Options{Owner: mixedAdminDN, EnforceAuthz: true}
}

func mixedName(i int) string { return fmt.Sprintf("pegasus-f%06d", i) }

func mixedCreateName(c, n int) string { return fmt.Sprintf("pegasus-c%d-%07d", c, n) }

// mixedGroup is the value group of client c's n-th registration.
func mixedGroup(seed int64, c, n int) int {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(c)<<40 + uint64(n)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int((x ^ (x >> 31)) % benchGroups)
}

func (m *mixed) createSpec(c, n int) core.FileSpec {
	return core.FileSpec{
		Name: mixedCreateName(c, n), DataType: "binary", Collection: fmt.Sprintf("grid/out%d", c),
		Attributes: bench.FileAttributes(mixedGroup(m.seed, c, n), 10),
	}
}

func (m *mixed) load(f *fabric) error {
	cat := f.cat
	for _, a := range bench.FileAttributes(0, 10) {
		if _, err := cat.DefineAttribute(mixedAdminDN, a.Name, a.Value.Type, "bench attribute"); err != nil {
			return err
		}
	}
	if _, err := cat.CreateCollection(mixedAdminDN, core.CollectionSpec{Name: "grid"}); err != nil {
		return err
	}
	nColl := (m.base + 999) / 1000
	for i := 0; i < nColl; i++ {
		if _, err := cat.CreateCollection(mixedAdminDN, core.CollectionSpec{Name: fmt.Sprintf("grid/c%d", i), Parent: "grid"}); err != nil {
			return err
		}
	}
	for _, c := range m.clients {
		out := fmt.Sprintf("grid/out%d", c.id)
		if _, err := cat.CreateCollection(mixedAdminDN, core.CollectionSpec{Name: out, Parent: "grid"}); err != nil {
			return err
		}
		for _, g := range []struct {
			typ  core.ObjectType
			obj  string
			perm core.Permission
		}{
			{core.ObjectCollection, "grid", core.PermRead},
			{core.ObjectService, "", core.PermCreate},
			{core.ObjectCollection, out, core.PermWrite},
		} {
			if err := cat.Grant(mixedAdminDN, g.typ, g.obj, c.dn, g.perm); err != nil {
				return err
			}
		}
	}
	specs := make([]core.FileSpec, 0, mixedLoadBatch)
	for i := 0; i < m.base; i++ {
		specs = append(specs, core.FileSpec{
			Name: mixedName(i), DataType: "binary", Collection: fmt.Sprintf("grid/c%d", i/1000),
			Attributes: bench.FileAttributes(i, 10),
		})
		f.lrc.Add(mixedName(i), f.pfn(mixedName(i)))
		if len(specs) == mixedLoadBatch || i == m.base-1 {
			if _, err := cat.BatchWrite(mixedAdminDN, batchOps(specs)); err != nil {
				return err
			}
			specs = specs[:0]
		}
	}
	return nil
}

func (m *mixed) attach(f *fabric, tr *tracer) []*runner {
	m.f = f
	var rs []*runner
	for _, c := range m.clients {
		cl := mcs.NewClient(f.mcsURL, c.dn, mcs.WithTransport(mcs.TransportJSON), mcs.WithHTTPClient(httpClient(tr)))
		c.r = &runner{dn: c.dn, be: clientBackend{cl}, tr: tr, rec: &recorder{}}
		rs = append(rs, c.r)
	}
	return rs
}

func (m *mixed) rounds(seconds int) (int, int) {
	return mixedWarmRounds, roundsFor(seconds, mixedRoundsPerS)
}

func (m *mixed) run(from, to int) {
	var wg sync.WaitGroup
	for _, c := range m.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := from; k < to; k++ {
				for _, kind := range m.interleave(k) {
					m.step(c, kind)
				}
			}
		}()
	}
	wg.Wait()
}

// interleave is round k's order of calls, the same for every client.
func (m *mixed) interleave(k int) []opKind {
	kinds := append([]opKind(nil), mixedRound...)
	rng := rand.New(rand.NewSource(m.seed*1000003 + int64(k)*7919 + mixedClients + 1))
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

func (m *mixed) step(c *mixedClient, kind opKind) {
	r := c.r
	switch kind {
	case opGetFile:
		name := mixedName(c.rng.Intn(m.base))
		if res, ok := r.do(0, op{kind: kind, name: name}); ok {
			f := res.file
			r.expect(f.Name == name && f.Version == 1 && f.DataType == "binary" && f.Valid,
				"mixed getFile %s: got %s v%d %q", name, f.Name, f.Version, f.DataType)
		}
	case opGetAttrs:
		i := c.rng.Intn(m.base)
		if res, ok := r.do(0, op{kind: kind, name: mixedName(i)}); ok {
			r.expect(sameAttrs(res.attrs, bench.FileAttributes(i, 10)), "mixed getAttributes %s: %v", mixedName(i), res.attrs)
		}
	case opSearch:
		m.search(c, c.rng.Intn(benchGroups))
	case opCreate:
		n := int(c.issued.Load())
		spec := m.createSpec(c.id, n)
		c.issued.Add(1)
		res, ok := r.do(0, op{kind: kind, files: []core.FileSpec{spec}})
		if !ok {
			c.failedCreate = true
			return
		}
		r.expect(res.file.Name == spec.Name && res.file.Version == 1, "mixed createFile %s: got %s v%d", spec.Name, res.file.Name, res.file.Version)
		c.acked = append(c.acked, spec)
		if !c.failedCreate {
			c.ackedPrefix.Store(int64(n + 1))
		}
	}
}

// search checks a search of group g against bounds the generator knows:
// it must return the group's base files and every registration into g
// acknowledged before it was sent, and nothing but those and the
// registrations sent before it returned.
func (m *mixed) search(c *mixedClient, g int) {
	var before [mixedClients]int
	for i, o := range m.clients {
		before[i] = int(o.ackedPrefix.Load())
	}
	q := core.Query{Predicates: bench.Predicates(mixedSearchAttrs, g)}
	res, ok := c.r.do(0, op{kind: opSearch, query: q})
	if !ok {
		return
	}
	got := make(map[string]bool, len(res.names))
	for _, n := range res.names {
		got[n] = true
	}
	allowed := 0
	missing := ""
	for i := g; i < m.base; i += benchGroups {
		allowed++
		if !got[mixedName(i)] {
			missing = mixedName(i)
		}
	}
	for i, o := range m.clients {
		after := int(o.issued.Load())
		for n := 0; n < after; n++ {
			if mixedGroup(m.seed, i, n) != g {
				continue
			}
			name := mixedCreateName(i, n)
			if got[name] {
				allowed++
			} else if n < before[i] {
				missing = name
			}
		}
	}
	c.r.expect(missing == "" && allowed == len(res.names),
		"mixed search of group %d: %d names, %d of them expected; missing %q", g, len(res.names), allowed, missing)
}

func (m *mixed) verify(*fabric, *recorder) {}

func (m *mixed) registered() []core.FileSpec {
	var out []core.FileSpec
	for _, c := range m.clients {
		out = append(out, c.acked...)
	}
	return out
}

func (m *mixed) probeNames() []string {
	names := make([]string, 64)
	for i := range names {
		names[i] = mixedName((i * 79) % m.base)
	}
	return names
}
