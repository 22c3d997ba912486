package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mcs"
	"mcs/internal/core"
	"mcs/internal/gridftp"
	"mcs/internal/rls"
	"mcs/internal/sqldb"
)

const (
	lrcName = "lrc://archive"
	// rliTTL outlives any run, so RLI entries never expire mid-run.
	rliTTL = time.Hour
	// bloomFP is the false-positive rate of the LRC summaries pushed to
	// the RLI.
	bloomFP = 0.01
	// contentSize is the size of every file the GridFTP server holds.
	contentSize = 32 << 10
)

// walOptions keep group commit (leader election, one write per round, the
// round counters) but skip the device fsync. The log lives inside the
// checkout, on whatever disk that is; fsync latency of a shared disk
// swings from run to run and would drown every other layer. Records still
// reach the OS at every commit, so the replay check holds.
var walOptions = sqldb.WALOptions{NoSync: true}

// fabric is one set-up of the system under test, all on loopback: the
// catalog and its write-ahead log behind an *mcs.Server, an RLS server
// holding one LRC and the RLI, and a GridFTP server.
type fabric struct {
	dir     string
	walPath string
	cat     *core.Catalog
	wal     *sqldb.WAL
	srv     *mcs.Server
	mcsURL  string
	lrc     *rls.LRC
	rlsURL  string
	ftp     *gridftp.Server
	ftpAddr string

	servers []*http.Server
	wg      sync.WaitGroup
}

// newFabric builds the catalog, RLS and GridFTP stores for w and starts
// the servers. tr, when set, wraps the catalog server's handler.
func newFabric(w workload, dir string, seed int64, tr *tracer) (*fabric, error) {
	f := &fabric{dir: dir, walPath: filepath.Join(dir, "catalog.wal")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	var err error
	if f.cat, err = core.Open(w.catalogOptions()); err != nil {
		return nil, err
	}
	if f.wal, _, err = f.cat.OpenWAL(f.walPath, walOptions); err != nil {
		return nil, err
	}
	f.ftp = gridftp.NewServer(genStore{seed})
	if f.ftpAddr, err = f.ftp.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	f.lrc = rls.NewLRC(lrcName)
	if err := w.load(f); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	if f.srv, err = mcs.NewServer(mcs.ServerOptions{Catalog: f.cat, WAL: f.wal}); err != nil {
		return nil, err
	}
	var h http.Handler = f.srv
	if tr != nil {
		h = tracingHandler{tr: tr, next: f.srv}
	}
	if f.mcsURL, err = f.serve(h); err != nil {
		return nil, err
	}
	if f.rlsURL, err = f.serve(rls.NewServer(f.lrc, rls.NewRLI())); err != nil {
		return nil, err
	}
	if err := f.pushRLI(rls.NewClient(f.rlsURL)); err != nil {
		return nil, fmt.Errorf("rli update: %w", err)
	}
	ok = true
	return f, nil
}

func (f *fabric) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.servers = append(f.servers, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// pushRLI sends the LRC's Bloom summary to the RLI. The benchmark pushes
// at fixed points instead of running rls.Updater, so no timer adds load.
func (f *fabric) pushRLI(c *rls.Client) error {
	return c.SendUpdate(lrcName, nil, f.lrc.Summary(bloomFP), rliTTL)
}

// pfn is the physical file name the LRC maps a logical name to.
func (f *fabric) pfn(lfn string) string { return "gsiftp://" + f.ftpAddr + "/" + lfn }

// closeServers stops the servers and closes the log, keeping its files.
func (f *fabric) closeServers() error {
	for _, hs := range f.servers {
		hs.Close() //nolint:errcheck // closing listeners of a finished run
	}
	f.wg.Wait()
	f.servers = nil
	if f.ftp != nil {
		f.ftp.Close()
		f.ftp = nil
	}
	var err error
	if f.wal != nil {
		err = f.wal.Close()
		f.wal = nil
	}
	return err
}

// close stops everything and removes the fabric's files.
func (f *fabric) close() {
	if err := f.closeServers(); err != nil {
		fmt.Fprintf(os.Stderr, "catbench: closing wal: %v\n", err)
	}
	os.RemoveAll(f.dir)
}

// genStore is the GridFTP server's store: every name holds contentSize
// bytes derived from the seed and the name, so any file can be fetched
// and checked without the archive sitting in memory.
type genStore struct{ seed int64 }

func (s genStore) Get(name string) ([]byte, bool) { return content(s.seed, name), true }
func (s genStore) Put(string, []byte)             {}
func (s genStore) List() []string                 { return nil }

// content is the generator's copy of a GridFTP file's bytes.
func content(seed int64, name string) []byte {
	h := fnv.New64a()
	h.Write([]byte(name))
	x := h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15
	out := make([]byte, contentSize)
	for i := 0; i < contentSize; i += 8 {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(out[i:], z^(z>>31))
	}
	return out
}

// httpClient is one client host's connection pool; tr, when set, traces
// every round trip.
func httpClient(tr *tracer) *http.Client {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 4}
	if tr != nil {
		rt = tracingTransport{tr: tr, base: rt}
	}
	return &http.Client{Transport: rt, Timeout: time.Minute}
}
