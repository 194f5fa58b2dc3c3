package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/csp"
)

// memStore is the benchmark's in-memory provider. It keeps its object
// names in a sorted slice updated on every insert and delete, so List is a
// binary search plus a copy of the matching range: the environment's cost
// is fixed here, and a change to the repository's own test double
// (cloudsim) cannot move client numbers. It implements the same optional
// capabilities as cloudsim.SimStore (BatchDownloader and RefStore).
//
// A nil link means zero service time; otherwise every call pays the link's
// round trip and payload transfer (see link).
type memStore struct {
	name string
	link *link

	authed atomic.Bool

	mu    sync.Mutex
	objs  map[string]memObject
	names []string // sorted keys of objs
	refs  map[string]map[string]bool
	held  int64 // bytes of all stored objects
}

type memObject struct {
	data     []byte
	modified time.Time
}

func newMemStore(name string, l *link) *memStore {
	return &memStore{name: name, link: l, objs: make(map[string]memObject), refs: make(map[string]map[string]bool)}
}

// heldBytes reports the bytes of every object the provider stores.
func (s *memStore) heldBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held
}

func (s *memStore) Name() string { return s.name }

func (s *memStore) Authenticate(ctx context.Context, creds csp.Credentials) error {
	if creds.Token == "" {
		return fmt.Errorf("%w: empty token for %s", csp.ErrUnauthorized, s.name)
	}
	if err := s.link.transfer(ctx, up, 0); err != nil {
		return err
	}
	s.authed.Store(true)
	return nil
}

func (s *memStore) session(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !s.authed.Load() {
		return fmt.Errorf("%w: %s", csp.ErrUnauthorized, s.name)
	}
	return nil
}

func (s *memStore) List(ctx context.Context, prefix string) ([]csp.ObjectInfo, error) {
	if err := s.session(ctx); err != nil {
		return nil, err
	}
	if err := s.link.transfer(ctx, down, 0); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.SearchStrings(s.names, prefix)
	var out []csp.ObjectInfo
	for ; i < len(s.names) && strings.HasPrefix(s.names[i], prefix); i++ {
		o := s.objs[s.names[i]]
		out = append(out, csp.ObjectInfo{Name: s.names[i], Size: int64(len(o.data)), Modified: o.modified})
	}
	return out, nil
}

func (s *memStore) Upload(ctx context.Context, name string, data []byte) error {
	if err := s.session(ctx); err != nil {
		return err
	}
	// The object becomes visible only once its bytes have crossed the link.
	if err := s.link.transfer(ctx, up, int64(len(data))); err != nil {
		return err
	}
	s.mu.Lock()
	s.putLocked(name, data)
	s.mu.Unlock()
	return nil
}

// putLocked stores a private copy of data under name (name-keyed: an
// upload to an existing name overwrites it).
func (s *memStore) putLocked(name string, data []byte) {
	if old, ok := s.objs[name]; ok {
		s.held -= int64(len(old.data))
	} else {
		i := sort.SearchStrings(s.names, name)
		s.names = append(s.names, "")
		copy(s.names[i+1:], s.names[i:])
		s.names[i] = name
	}
	s.objs[name] = memObject{data: append([]byte(nil), data...), modified: time.Now()}
	s.held += int64(len(data))
}

func (s *memStore) deleteLocked(name string) {
	old := s.objs[name]
	s.held -= int64(len(old.data))
	delete(s.objs, name)
	delete(s.refs, name)
	i := sort.SearchStrings(s.names, name)
	s.names = append(s.names[:i], s.names[i+1:]...)
}

// get returns a private copy of the object.
func (s *memStore) get(name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objs[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), o.data...), true
}

func (s *memStore) notFound(name string) error {
	return fmt.Errorf("%w: %s has no %q", csp.ErrNotFound, s.name, name)
}

func (s *memStore) Download(ctx context.Context, name string) ([]byte, error) {
	if err := s.session(ctx); err != nil {
		return nil, err
	}
	data, ok := s.get(name)
	if !ok {
		if err := s.link.transfer(ctx, down, 0); err != nil {
			return nil, err
		}
		return nil, s.notFound(name)
	}
	if err := s.link.transfer(ctx, down, int64(len(data))); err != nil {
		return nil, err
	}
	return data, nil
}

// DownloadBatch implements csp.BatchDownloader: one round trip plus the
// summed payload. Missing objects are omitted.
func (s *memStore) DownloadBatch(ctx context.Context, names []string) (map[string][]byte, error) {
	if err := s.session(ctx); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(names))
	var total int64
	for _, name := range names {
		if data, ok := s.get(name); ok {
			out[name] = data
			total += int64(len(data))
		}
	}
	if err := s.link.transfer(ctx, down, total); err != nil {
		return nil, err
	}
	return out, nil
}

func (s *memStore) Delete(ctx context.Context, name string) error {
	if err := s.session(ctx); err != nil {
		return err
	}
	if err := s.link.transfer(ctx, up, 0); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objs[name]; !ok {
		return s.notFound(name)
	}
	s.deleteLocked(name)
	return nil
}

// PutRef implements csp.RefStore. A hit on an existing object pays only
// the round trip.
func (s *memStore) PutRef(ctx context.Context, name, ref string, data []byte) (bool, error) {
	if err := s.session(ctx); err != nil {
		return false, err
	}
	s.mu.Lock()
	_, exists := s.objs[name]
	s.mu.Unlock()
	payload := int64(len(data))
	if exists {
		payload = 0
	}
	if err := s.link.transfer(ctx, up, payload); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, exists = s.objs[name]
	if !exists {
		s.putLocked(name, data)
	}
	s.addRefLocked(name, ref)
	return !exists, nil
}

func (s *memStore) addRefLocked(name, ref string) {
	toks := s.refs[name]
	if toks == nil {
		toks = make(map[string]bool)
		s.refs[name] = toks
	}
	toks[ref] = true
}

func (s *memStore) AddRef(ctx context.Context, name, ref string) error {
	if err := s.session(ctx); err != nil {
		return err
	}
	if err := s.link.transfer(ctx, up, 0); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objs[name]; !ok {
		return s.notFound(name)
	}
	s.addRefLocked(name, ref)
	return nil
}

func (s *memStore) DelRef(ctx context.Context, name, ref string) (bool, error) {
	if err := s.session(ctx); err != nil {
		return false, err
	}
	if err := s.link.transfer(ctx, up, 0); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objs[name]; !ok {
		return false, s.notFound(name)
	}
	if toks := s.refs[name]; toks != nil {
		delete(toks, ref)
		if len(toks) > 0 {
			return false, nil
		}
	}
	s.deleteLocked(name)
	return true, nil
}

func (s *memStore) Refs(ctx context.Context, name string) ([]string, error) {
	if err := s.session(ctx); err != nil {
		return nil, err
	}
	if err := s.link.transfer(ctx, down, 0); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objs[name]; !ok {
		return nil, s.notFound(name)
	}
	out := make([]string, 0, len(s.refs[name]))
	for tok := range s.refs[name] {
		out = append(out, tok)
	}
	sort.Strings(out)
	return out, nil
}

var (
	_ csp.Store           = (*memStore)(nil)
	_ csp.BatchDownloader = (*memStore)(nil)
	_ csp.RefStore        = (*memStore)(nil)
)

// Link directions.
const (
	up = iota
	down
)

// link is a real-time model of one client-to-provider path: every call
// pays one round trip, and its payload is serialised FIFO on the
// direction's pipe at the link's bandwidth, so concurrent transfers to one
// provider queue behind each other. A straggling link adds an extra delay
// to the calls its schedule picks; the schedule is keyed to the link's
// call count, not to wall time. The model takes a context so that an
// attempt the client abandons (a hedge loser) returns at once; the pipe
// time it reserved stays spent, as bytes already sent would be.
//
// It stands in for cloudsim.Transport, whose calls carry no context and
// could not be cut off.
type link struct {
	rtt      time.Duration
	bps      float64                         // bytes per second, each direction
	straggle func(call uint64) time.Duration // extra delay of the n-th call; nil for none

	calls atomic.Uint64
	mu    sync.Mutex
	free  [2]time.Time // when each direction's pipe is next idle
}

// transfer charges one call carrying bytes in direction dir. A nil link
// is instant.
func (l *link) transfer(ctx context.Context, dir int, bytes int64) error {
	if l == nil {
		return nil
	}
	delay := l.rtt
	if l.straggle != nil {
		delay += l.straggle(l.calls.Add(1))
	}
	done := time.Now().Add(delay)
	if bytes > 0 {
		l.mu.Lock()
		if l.free[dir].After(done) {
			done = l.free[dir]
		}
		done = done.Add(time.Duration(float64(bytes) / l.bps * float64(time.Second)))
		l.free[dir] = done
		l.mu.Unlock()
	}
	t := time.NewTimer(time.Until(done))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
