package transport

import (
	"fmt"
	"net/http"
	"slices"
	"sort"

	"aqverify/internal/backend"
	"aqverify/internal/geometry"
	"aqverify/internal/shard"
)

// DialFanout dials every shard server of a multi-process deployment,
// recovers the shard plan from the advertised serving domains (each
// vqserve -shard i publishes its sub-box on /params), and composes the
// remotes into a backend.Fanout — DialGroups with one replica per shard
// group. urls may list the backends in any order; the slice is
// reordered in place into shard order (left to right along the cut
// axis), index-aligned with the fanout's shards.
//
// The returned Params is the merged trust bundle the front-end
// republishes on its own /params: the dialed bundle with the joined
// domain and the shard count substituted, so a verifying client dials
// the front-end exactly as it would dial a single vqserve.
func DialFanout(urls []string, hc *http.Client) (*backend.Fanout, Params, error) {
	groups := make([][]string, len(urls))
	for i, u := range urls {
		groups[i] = []string{u}
	}
	plan, remotes, params, err := DialGroups(groups, hc)
	if err != nil {
		return nil, Params{}, err
	}
	kids := make([]backend.Backend, len(remotes))
	for i, reps := range remotes {
		kids[i] = reps[0]
		urls[i] = groups[i][0]
	}
	f, err := backend.NewFanout(plan, kids)
	if err != nil {
		return nil, Params{}, err
	}
	// The front-end advertises the newest epoch any shard serves — the
	// owner publishes monotonically, so the maximum is authoritative;
	// per-shard lag during a rollout shows on the front-end's /stats.
	// The handler reads the live value off Fanout.Epoch at request time.
	params.Epoch = f.Epoch()
	return f, params, nil
}

// DialGroups dials every replica of every shard group of a
// multi-process deployment — groups[i] lists one shard's replica base
// URLs — and checks the fleet serves one logical database: every
// replica must advertise its serving domain and the same backend name,
// verifier key and template (CheckSameBundle); every artifact-serving
// replica the same artifact content hash (a mismatch is an
// *ArtifactMismatchError naming both URLs; built replicas advertise
// none and mix freely — a rolling redeploy looks like that); replicas
// of one group the same sub-box. Epochs may differ. It then recovers
// the shard plan from the groups' sub-boxes. groups is reordered in
// place into shard order (ascending box corner — left to right along
// the cut axis) and the returned remotes are index-aligned with it,
// each switched to relay mode: the end client holds the epoch pin, a
// composing hop forwards answers with their epoch stamps intact.
//
// The returned Params is shard 0's bundle with the shard count, the
// joined domain and the fleet's artifact hash substituted; the caller
// stamps the epoch. A dial failure is a *RemoteError naming the
// URL that failed.
func DialGroups(groups [][]string, hc *http.Client) (shard.Plan, [][]*Remote, Params, error) {
	fail := func(err error) (shard.Plan, [][]*Remote, Params, error) {
		return shard.Plan{}, nil, Params{}, err
	}
	if len(groups) == 0 {
		return fail(fmt.Errorf("transport: no backends given"))
	}
	type group struct {
		urls []string
		reps []*Remote
		box  geometry.Box
	}
	gs := make([]group, len(groups))
	var first, art *HTTPClient // bundle anchor; first artifact-serving replica
	for gi, urls := range groups {
		if len(urls) == 0 {
			return fail(fmt.Errorf("transport: shard group %d has no replica URLs", gi))
		}
		gs[gi].urls = urls
		for ri, u := range urls {
			r, err := DialRemote(u, hc)
			if err != nil {
				return fail(&RemoteError{URL: u, Err: err})
			}
			box, ok := r.c.Domain()
			if !ok {
				return fail(fmt.Errorf("transport: backend %s does not advertise its serving domain; run a current vqserve", u))
			}
			if first == nil {
				first = r.c
			} else if err := CheckSameBundle(u, r.c.params, first.base, first.params); err != nil {
				return fail(err)
			}
			if ri == 0 {
				gs[gi].box = box
			} else if !box.Equal(gs[gi].box) {
				return fail(fmt.Errorf("transport: replica %s advertises a different serving domain than replica %s; replicas of one shard group must serve the same sub-box", u, urls[0]))
			}
			// The manifest hash is one value for a whole saved set, so
			// two different nonempty hashes mean two publications
			// composed into one façade.
			if hash := r.c.params.Artifact; hash != "" {
				if art == nil {
					art = r.c
				} else if hash != art.params.Artifact {
					return fail(&ArtifactMismatchError{
						URL: u, Hash: hash,
						OtherURL: art.base, OtherHash: art.params.Artifact,
					})
				}
			}
			r.relay = true
			gs[gi].reps = append(gs[gi].reps, r)
		}
	}
	// Shard order = ascending corner order; for a one-axis split this is
	// the left-to-right order PlanFromBoxes requires.
	sort.SliceStable(gs, func(i, j int) bool {
		for d := range gs[i].box.Lo {
			if gs[i].box.Lo[d] != gs[j].box.Lo[d] {
				return gs[i].box.Lo[d] < gs[j].box.Lo[d]
			}
		}
		return false
	})
	boxes := make([]geometry.Box, len(gs))
	remotes := make([][]*Remote, len(gs))
	for i, g := range gs {
		boxes[i], remotes[i], groups[i] = g.box, g.reps, g.urls
	}
	plan, err := shard.PlanFromBoxes(boxes)
	if err != nil {
		return fail(fmt.Errorf("transport: recovering the shard plan: %w", err))
	}
	merged := remotes[0][0].c.params
	merged.Shards = plan.K()
	merged.Domain = ToBoxJSON(plan.Domain)
	merged.Artifact = ""
	if art != nil {
		merged.Artifact = art.params.Artifact
	}
	return plan, remotes, merged, nil
}

// ArtifactMismatchError reports two shard servers of one deployment
// advertising different artifact content hashes on /params: their trees
// come from different saved publications, and composing them would
// serve a database no single owner build produced. DialFanout returns
// it so operators see which two backends disagree by name.
type ArtifactMismatchError struct {
	URL, Hash           string // the backend that broke the match
	OtherURL, OtherHash string // the first artifact-serving backend dialed
}

func (e *ArtifactMismatchError) Error() string {
	return fmt.Sprintf("transport: backend %s serves artifact %.12s…, %s serves %.12s…; shard servers must load shards of one saved set",
		e.URL, e.Hash, e.OtherURL, e.OtherHash)
}

// CheckSameBundle verifies a server's advertised bundle describes the
// same logical database as an anchor server's: same backend name, same
// verifier key, same template — one database, one owner. DialGroups
// runs it across every replica of every shard; the error names both
// URLs.
func CheckSameBundle(url string, p Params, anchorURL string, anchor Params) error {
	if p.Backend != anchor.Backend {
		return fmt.Errorf("transport: backend %s serves %q, %s serves %q; one logical database required",
			url, p.Backend, anchorURL, anchor.Backend)
	}
	if p.Verifier != anchor.Verifier {
		return fmt.Errorf("transport: backend %s publishes a different verifier key than %s; all shards must come from one owner build (vqgen -outsource -shards K)",
			url, anchorURL)
	}
	if a, b := p.Template, anchor.Template; a.Name != b.Name || a.BiasAttr != b.BiasAttr || !slices.Equal(a.CoefAttrs, b.CoefAttrs) {
		return fmt.Errorf("transport: backend %s publishes a different template than %s", url, anchorURL)
	}
	return nil
}
