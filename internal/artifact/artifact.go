// Package artifact persists the build plane's products as versioned,
// content-hashed, memory-mappable on-disk artifacts — the durable form
// of the paper's outsourcing hand-off. The owner builds once
// (build.Outsource or build.Apply), Save writes an artifact directory,
// and any server restart reconstructs the serving tree or shard set
// from it with Open in O(structure) — no raw table, no O(n²) rebuild.
//
// An artifact directory holds a manifest (manifest.aqm) binding the
// product kind, epoch, mode, public parameter bundle, shard plan, and
// each blob's sealed content hash and tree fingerprint, plus one tree
// blob per tree (tree.aqt, or shard-0000.aqt … for a sharded set). The
// manifest's own trailing self-hash is the artifact content hash that
// /params advertises, which is how a routing front-end detects
// mismatched shard artifacts at dial. Byte layouts are documented in
// docs/ARTIFACT.md and pinned by test.
//
// Open refuses bad inputs by name: ErrBadMagic (not an artifact file),
// ErrVersion (a format this build does not speak), ErrTruncated (the
// file ends mid-structure), ErrCorrupt (a content hash or structural
// invariant fails), ErrTorn (a blob's epoch disagrees with the
// manifest — a partially overwritten directory). On unix the blobs are
// memory-mapped read-only and the reconstructed trees serve signatures,
// inequality encodings and record payloads straight out of the map;
// Close unmaps them.
package artifact

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/codec"
	"aqverify/internal/core"
	"aqverify/internal/hashing"
	"aqverify/internal/shard"
	"aqverify/internal/verify"
)

// Named refusals. Every error Open returns wraps exactly one of these,
// so callers can switch on the failure class with errors.Is.
var (
	// ErrBadMagic marks a file that does not open with the expected
	// four-byte magic — not an artifact file, or the wrong kind.
	ErrBadMagic = errors.New("artifact: bad magic")
	// ErrVersion marks a format version this build does not speak.
	ErrVersion = errors.New("artifact: unsupported format version")
	// ErrTruncated marks a file that ends in the middle of a structure:
	// codec's sentinel, which every reader of untrusted bytes shares.
	ErrTruncated = codec.ErrTruncated
	// ErrCorrupt marks a failed content hash, fingerprint or structural
	// invariant: codec's sentinel too.
	ErrCorrupt = codec.ErrCorrupt
	// ErrTorn marks a blob whose epoch disagrees with the manifest: the
	// directory mixes files from two different publications.
	ErrTorn = errors.New("artifact: torn (mixed epochs)")
)

// ManifestName is the manifest's file name inside an artifact directory.
const ManifestName = "manifest.aqm"

// treeName is the single-tree blob's file name; shardName names the
// per-shard blobs of a set artifact.
const treeName = "tree.aqt"

func shardName(i int) string { return fmt.Sprintf("shard-%04d.aqt", i) }

// Kind is the artifact product kind.
type Kind uint8

const (
	// KindTree is a single IFMH tree.
	KindTree Kind = 1
	// KindSet is a domain-sharded tree set: one blob per shard.
	KindSet Kind = 2
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindTree:
		return "tree"
	case KindSet:
		return "set"
	default:
		return fmt.Sprintf("artifact.Kind(%d)", uint8(k))
	}
}

// Info describes an artifact directory: everything the manifest binds.
type Info struct {
	// Hash is the artifact content hash — the manifest's sealed
	// self-digest, covering the epoch, mode, parameter bundle, shard
	// plan and every blob's content hash. Two directories with equal
	// hashes hold byte-identical artifacts; this is the identity
	// /params advertises.
	Hash hashing.Digest
	// Kind is the product kind.
	Kind Kind
	// Epoch is the publication epoch every blob was saved at.
	Epoch uint64
	// Mode is the signing mode.
	Mode verify.Mode
	// Shards is the blob count: 1 for a tree artifact, K for a set.
	Shards int
	// Plan is the shard plan (the trivial single-shard plan for a tree
	// artifact, mirroring build.Result).
	Plan shard.Plan
	// Public is the published parameter bundle reconstructed from the
	// manifest.
	Public verify.PublicParams
	// Fingerprints holds each tree's core fingerprint, in shard order.
	Fingerprints []hashing.Digest
}

// HashHex returns the artifact content hash in lowercase hex — the
// form /params advertises and boot reports print.
func (i Info) HashHex() string { return hex.EncodeToString(i.Hash[:]) }

// Artifact is an opened artifact: the manifest's Info plus the
// reconstructed build product, ready to serve. The trees alias the
// memory-mapped blob files; Close unmaps them, after which the trees
// must not be used.
type Artifact struct {
	Info
	// Result is the reconstructed build product: Tree for a tree
	// artifact (or a single shard opened with OpenShard), Set for a
	// set. It holds serving trees only — they answer and authenticate
	// exactly like the originals (equal fingerprints) — and no owner, so
	// build.Apply refuses it.
	Result *build.Result
	maps   []mapping
}

// Save writes the build product as an artifact directory, creating it
// if needed and replacing a previous artifact there. Every file is
// written under a temporary name in dir and renamed into place, blobs
// first and the manifest last: an artifact opened from dir keeps its
// own files (their inodes outlive the rename for as long as they are
// mapped), and a concurrent Open sees the old epoch, the new one, or
// ErrTorn — never a blob rewritten under its map. It refuses a product
// whose tree count disagrees with its plan (one shard re-opened with
// OpenShard is not a whole publication).
func Save(dir string, res *build.Result) (Info, error) {
	if res == nil {
		return Info{}, fmt.Errorf("artifact: nil build result")
	}
	var kind Kind
	var trees []*core.Tree
	switch {
	case res.Set != nil:
		kind = KindSet
		trees = res.Set.Trees
	case res.Tree != nil:
		kind = KindTree
		trees = []*core.Tree{res.Tree}
	default:
		return Info{}, fmt.Errorf("artifact: empty build result")
	}
	if res.Plan.K() != len(trees) {
		return Info{}, fmt.Errorf("artifact: %d trees under a %d-shard plan", len(trees), res.Plan.K())
	}
	epoch, mode := trees[0].Epoch(), trees[0].Mode()
	for i, t := range trees {
		if t.Epoch() != epoch {
			return Info{}, fmt.Errorf("artifact: refusing a torn save: shard %d at epoch %d, shard 0 at epoch %d", i, t.Epoch(), epoch)
		}
		if t.Mode() != mode {
			return Info{}, fmt.Errorf("artifact: shard %d mode %v != shard 0 mode %v", i, t.Mode(), mode)
		}
	}
	vb, err := verify.MarshalVerifier(res.Public.Verifier)
	if err != nil {
		return Info{}, fmt.Errorf("artifact: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Info{}, err
	}

	m := &manifest{
		kind:          kind,
		epoch:         epoch,
		mode:          mode,
		verifierBytes: vb,
		template:      res.Public.Template,
		plan:          res.Plan,
		fileHashes:    make([]hashing.Digest, len(trees)),
		fingerprints:  make([]hashing.Digest, len(trees)),
	}
	names := make([]string, 0, len(trees)+1)
	defer func() {
		for _, name := range names {
			os.Remove(tempName(dir, name)) // a no-op once renamed
		}
	}()
	for i, t := range trees {
		shardIdx := build.ShardNone
		name := treeName
		if kind == KindSet {
			shardIdx = i
			name = shardName(i)
		}
		names = append(names, name)
		// The blob's sealed trailer is hashed on a second goroutine while
		// the fingerprint is taken and the body written, and written last;
		// the deferred wait joins it on every return.
		body := encodeBody(t.Snapshot(), shardIdx)
		sum := sumAside(body)
		defer sum()
		m.fingerprints[i] = t.Fingerprint()
		f, err := os.OpenFile(tempName(dir, name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return Info{}, err
		}
		_, err = f.Write(body)
		if m.fileHashes[i] = sum(); err == nil {
			_, err = f.Write(m.fileHashes[i][:])
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return Info{}, err
		}
	}
	mb, _ := encodeManifest(m)
	names = append(names, ManifestName)
	if err := os.WriteFile(tempName(dir, ManifestName), mb, 0o644); err != nil {
		return Info{}, err
	}
	for _, name := range names {
		if err := os.Rename(tempName(dir, name), filepath.Join(dir, name)); err != nil {
			return Info{}, err
		}
	}
	return infoOf(m, res.Public.Verifier), nil
}

// tempName is where Save writes name before renaming it into place.
func tempName(dir, name string) string { return filepath.Join(dir, "."+name+".tmp") }

// infoOf assembles the public Info view of a decoded (or just-encoded)
// manifest.
func infoOf(m *manifest, v verify.Verifier) Info {
	return Info{
		Hash:   m.hash,
		Kind:   m.kind,
		Epoch:  m.epoch,
		Mode:   m.mode,
		Shards: len(m.fileHashes),
		Plan:   m.plan,
		Public: verify.PublicParams{
			Verifier: v,
			Template: m.template,
			Mode:     m.mode,
			Epoch:    m.epoch,
		},
		Fingerprints: m.fingerprints,
	}
}

func readManifest(dir string) (*manifest, verify.Verifier, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, nil, fmt.Errorf("artifact: %w", err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (%s)", err, ManifestName)
	}
	v, err := verify.UnmarshalVerifier(m.verifierBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: manifest verifier: %v", ErrCorrupt, err)
	}
	return m, v, nil
}

// Open opens an artifact directory and reconstructs its full product:
// the single serving tree of a tree artifact, or the whole shard set of
// a set artifact (every blob mapped and verified). The caller owns the
// returned artifact and must Close it when the trees go out of service.
func Open(dir string) (*Artifact, error) {
	m, v, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	a := &Artifact{Info: infoOf(m, v)}
	trees := make([]*core.Tree, len(m.fileHashes))
	for i := range trees {
		t, err := a.openTree(dir, m, v, i)
		if err != nil {
			a.Close()
			return nil, err
		}
		trees[i] = t
	}
	if m.kind == KindTree {
		a.Result = &build.Result{Tree: trees[0], Plan: m.plan, Public: a.Info.Public}
	} else {
		a.Result = &build.Result{Set: &shard.Set{Plan: m.plan, Trees: trees}, Plan: m.plan, Public: a.Info.Public}
	}
	return a, nil
}

// OpenShard opens exactly one shard of a set artifact — what a
// per-shard vqserve process loads, mapping only its own blob. The
// result carries the shard's tree and the full plan (the tree's own
// domain is the sub-box the daemon publishes); the advertised artifact
// hash is the whole set's, which is what lets a front-end check that
// the K processes serve shards of the same artifact.
func OpenShard(dir string, i int) (*Artifact, error) {
	m, v, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if m.kind != KindSet {
		return nil, fmt.Errorf("artifact: %s holds a %s artifact, not a sharded set", dir, m.kind)
	}
	if i < 0 || i >= len(m.fileHashes) {
		return nil, fmt.Errorf("artifact: shard %d out of range for a %d-shard set", i, len(m.fileHashes))
	}
	a := &Artifact{Info: infoOf(m, v)}
	t, err := a.openTree(dir, m, v, i)
	if err != nil {
		a.Close()
		return nil, err
	}
	a.Result = &build.Result{Tree: t, Plan: m.plan, Public: a.Info.Public}
	return a, nil
}

// openTree maps and verifies blob i and reconstructs its serving tree,
// cross-checking the blob against the manifest: epoch agreement first
// (a self-consistent blob from another publication is torn, not
// corrupt), then the sealed content hash, then — after reconstruction —
// the tree fingerprint.
func (a *Artifact) openTree(dir string, m *manifest, v verify.Verifier, i int) (*core.Tree, error) {
	name := treeName
	wantShard := nilIndex
	if m.kind == KindSet {
		name = shardName(i)
		wantShard = uint32(i)
	}
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	mp, err := mapFile(f)
	f.Close() // the mapping (or copied buffer) outlives the descriptor
	if err != nil {
		return nil, fmt.Errorf("artifact: mapping %s: %w", name, err)
	}
	a.maps = append(a.maps, mp)

	d, err := decodeTree(mp.data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, name)
	}
	if d.Epoch != m.epoch {
		return nil, fmt.Errorf("%w: %s at epoch %d, manifest at epoch %d", ErrTorn, name, d.Epoch, m.epoch)
	}
	if d.Mode != m.mode {
		return nil, fmt.Errorf("%w: %s mode %v, manifest mode %v", ErrCorrupt, name, d.Mode, m.mode)
	}
	if d.shard != wantShard {
		return nil, fmt.Errorf("%w: %s carries shard index %d", ErrCorrupt, name, int32(d.shard))
	}
	if d.hash != m.fileHashes[i] {
		return nil, fmt.Errorf("%w: %s content hash does not match the manifest", ErrCorrupt, name)
	}
	wantDomain := m.plan.Domain
	if m.kind == KindSet {
		wantDomain = m.plan.Boxes[i]
	}
	if !d.Domain.Equal(wantDomain) {
		return nil, fmt.Errorf("%w: %s domain %v disagrees with the plan's %v", ErrCorrupt, name, d.Domain, wantDomain)
	}

	d.Template, d.Verifier = m.template, v
	t, err := core.FromSnapshot(d.Snapshot)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
	}
	if fp := t.Fingerprint(); fp != m.fingerprints[i] {
		return nil, fmt.Errorf("%w: %s fingerprint does not match the manifest", ErrCorrupt, name)
	}
	return t, nil
}

// Backend wraps the opened product as a server backend: a
// backend.Local for a tree (or single shard), a backend.Sharded for a
// set — exactly what a freshly built result would wrap to, so
// server.Swap rolls a loaded artifact out blue-green under the same
// epoch discipline.
func (a *Artifact) Backend() (backend.Backend, error) {
	switch {
	case a.Result == nil:
		return nil, fmt.Errorf("artifact: not opened")
	case a.Result.Set != nil:
		return backend.NewSharded(a.Result.Set)
	default:
		return backend.NewLocal(a.Result.Tree)
	}
}

// Close unmaps the blob files. The reconstructed trees alias the maps
// and must not be used afterwards: behind a server.Server, close the
// previous epoch's artifact only once every exchange that began before
// the Swap has finished — the server pins a snapshot per exchange, so a
// batch still being answered reads the old mapping until its last item.
func (a *Artifact) Close() error {
	var first error
	for _, mp := range a.maps {
		if err := mp.close(); err != nil && first == nil {
			first = err
		}
	}
	a.maps = nil
	return first
}
