package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"

	"aqverify/internal/build"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

// The fixed inputs every workload shares. n = 2000 connects the numbers
// to ROADMAP's BenchmarkHandleBatch profile; the key seed makes the
// ed25519 key, and so every answer byte, reproducible. The table is the
// same on every run: the number of subdomains 2000 random lines cut the
// domain into — and with it the size of the tree and the cost of a
// republish cycle — moves by a seventh from one table seed to the next,
// which is a workload of another size, not another sample of this one.
// --seed draws the traffic: the queries, the Zipf order, the mutations.
const (
	numRecords   = 2000
	tableSeed    = 1
	keySeed      = 7
	numShards    = 2
	mixedQueries = 12288 // 3x cache.DefaultAnswerCapacity: the Zipf working set outgrows the cache
	batchSize    = 64
	zipfSkew     = 1.1
	zipfDraws    = 1 << 18 // more draws than any run consumes; the stream wraps if one ever does
	digestCount  = 2048    // queries behind answers_sha256 and the in-process replay
	runSeconds   = 24      // BENCHMARK.json's run_seconds: the default length of the timed windows
)

// resultSizes are the result sizes the mixed sequence cycles through.
var resultSizes = [3]int{4, 16, 64}

// inputs is the dataset handed to the owner and everything generated
// from the seed: the query sequences the client issues and the
// mutation stream. The programs under test never see the seed.
type inputs struct {
	seed  int64 // of the traffic
	tbl   record.Table
	dom   geometry.Box
	tpl   funcs.Template
	mixed []query.Query // query i: kind i%3 (top-k, range, kNN), size resultSizes[(i/3)%3]
	draws []int32       // Zipf(zipfSkew) ranks into mixed, for zipf_cached
}

// genInputs generates the dataset and derives the query sequences from
// the seed; n scales the dataset (tests use a small one) and count the
// sequence.
func genInputs(seed int64, n, count int) (*inputs, error) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: tableSeed})
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, tbl: tbl, dom: dom, tpl: funcs.AffineLine(0, 1)}

	// One generator call per (kind, size) cell, each with its own seed;
	// query i takes the next unused query of its cell.
	per := (count + 8) / 9
	var cells [3][3][]query.Query
	for s, size := range resultSizes {
		size = min(size, n/2)
		cfg := func(kind int) workload.QueryConfig {
			return workload.QueryConfig{Count: per, Seed: seed*16 + int64(3*kind+s), ResultSize: size}
		}
		cells[0][s] = workload.TopK(dom, cfg(0))
		if cells[1][s], err = workload.Ranges(tbl, in.tpl, dom, cfg(1)); err != nil {
			return nil, err
		}
		if cells[2][s], err = workload.KNN(tbl, in.tpl, dom, cfg(2)); err != nil {
			return nil, err
		}
	}
	in.mixed = make([]query.Query, count)
	for i := range in.mixed {
		in.mixed[i] = cells[i%3][(i/3)%3][i/9]
	}

	rng := rand.New(rand.NewSource(seed + 1))
	z := rand.NewZipf(rng, zipfSkew, 1, uint64(count-1))
	in.draws = make([]int32, zipfDraws)
	for i := range in.draws {
		in.draws[i] = int32(z.Uint64())
	}
	return in, nil
}

// digest returns inputs_sha256 for a workload: the wire encoding of the
// mixed sequence, plus what the workload adds to it — the Zipf draw
// order, or the republish mutation stream.
func (in *inputs) digest(workload string) string {
	h := sha256.New()
	for _, q := range in.mixed {
		h.Write(wire.EncodeQuery(q))
	}
	switch workload {
	case "zipf_cached":
		for _, d := range in.draws {
			h.Write(binary.BigEndian.AppendUint32(nil, uint32(d)))
		}
	case "republish":
		m := newMutator(in)
		for c := 0; c < 64; c++ {
			for _, mut := range m.next() {
				h.Write([]byte(mut.String()))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// batch returns the i-th 64-query batch of the mixed sequence, wrapping.
func (in *inputs) batch(i int64) []query.Query {
	nb := int64(len(in.mixed) / batchSize)
	lo := (i % nb) * batchSize
	return in.mixed[lo : lo+batchSize]
}

// mutator yields the republish workload's mutation stream: every cycle
// updates one record, inserts one and deletes one, so the table keeps
// its size while its contents (and the record order) drift.
type mutator struct {
	rng   *rand.Rand
	n     int
	cycle int
}

func newMutator(in *inputs) *mutator {
	return &mutator{rng: rand.New(rand.NewSource(in.seed + 2)), n: in.tbl.Len()}
}

func (m *mutator) next() []build.Mutation {
	m.cycle++
	line := func(id int) record.Record {
		return record.Record{ID: uint64(id), Attrs: []float64{m.rng.NormFloat64(), m.rng.NormFloat64() * 3}}
	}
	upd := m.rng.Intn(m.n)
	del := (upd + 1 + m.rng.Intn(m.n-1)) % m.n // any index but upd
	return []build.Mutation{
		build.Update(upd, line(10*m.n+2*m.cycle)),
		build.Insert(line(10*m.n + 2*m.cycle + 1)),
		build.Delete(del),
	}
}
