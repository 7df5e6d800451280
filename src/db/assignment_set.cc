#include "db/assignment_set.h"

#include <algorithm>
#include <cassert>

namespace bvq {

namespace {

// Grain for kernels that fill private per-chunk shards: bounds the chunk
// count (and therefore shard memory) to ~2 per thread.
std::size_t ShardGrain(std::size_t total, std::size_t num_threads) {
  const std::size_t max_chunks = std::max<std::size_t>(1, num_threads * 2);
  return std::max<std::size_t>(1, (total + max_chunks - 1) / max_chunks);
}

// Runs fill(begin, end, &dst) over the chunks of `plan` for kernels whose
// chunks may set bits in shared words. A single chunk writes straight into
// `out`; fanned-out chunks fill private shards merged in chunk-index order.
// OR is commutative, so the result is byte-identical for every thread
// count; the stable order is kept anyway so relaxing that invariant later
// (e.g. for non-commutative merges) cannot silently change outputs.
template <typename Fill>
void FillSharded(const ChunkPlan& plan, DynamicBitset* out, const Fill& fill) {
  if (plan.num_chunks() <= 1) {
    plan.Run([&](std::size_t, std::size_t begin, std::size_t end) {
      fill(begin, end, out);
    });
    return;
  }
  std::vector<DynamicBitset> shards(plan.num_chunks());
  plan.Run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
    DynamicBitset shard(out->size());
    fill(begin, end, &shard);
    shards[chunk] = std::move(shard);
  });
  // A chunk skipped by a tripped cancel token leaves an empty shard.
  for (const DynamicBitset& shard : shards) {
    if (shard.size() == out->size()) *out |= shard;
  }
}

// The quantifier sweep along one axis of the cube (the coordinate with
// stride `stride`): every line of n positions that differ only in that
// coordinate becomes all-ones in `out` if any (kAll = false: exists) or
// every (kAll = true: forall) position is set in `in`, else stays empty.
template <bool kAll>
void QuantifyAxis(const DynamicBitset& in, std::size_t n, std::size_t stride,
                  ThreadPool* pool, DynamicBitset* out) {
  const std::size_t total = in.size();
  if (total == 0) return;  // n = 0: no lines, and stride n^var may be 0
  if (stride % 64 == 0) {
    // Word-slab sweep: the axis positions of one (major, minor) item are n
    // whole words `stride_w` apart, so the per-base bit loop collapses to n
    // word reads, one fold, and n word writes. Items write disjoint words,
    // hence chunk boundaries can fall anywhere.
    const std::size_t stride_w = stride / 64;
    const std::size_t block_w = stride_w * n;
    const uint64_t* src = in.word_data();
    uint64_t* dst = out->word_data();
    const std::size_t items = in.num_words() / n;
    PlanChunks(pool, items, total, kMinParallelBits, ShardGrain)
        .Run([&](std::size_t, std::size_t begin, std::size_t end) {
          std::size_t major = begin / stride_w * block_w;
          std::size_t minor = begin % stride_w;
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t base_w = major + minor;
            uint64_t acc = kAll ? ~uint64_t{0} : 0;
            for (std::size_t v = 0; v < n; ++v) {
              const uint64_t w = src[base_w + v * stride_w];
              acc = kAll ? (acc & w) : (acc | w);
            }
            for (std::size_t v = 0; v < n; ++v) {
              dst[base_w + v * stride_w] = acc;
            }
            if (++minor == stride_w) {
              minor = 0;
              major += block_w;
            }
          }
        });
    return;
  }
  // Unaligned stride: sweep the base ranks (coordinate == 0). The axis
  // positions of bases in different chunks can share words, so chunks fill
  // shards.
  const std::size_t block = stride * n;
  FillSharded(
      PlanChunks(pool, total / n, total, kMinParallelBits, ShardGrain), out,
      [&](std::size_t begin, std::size_t end, DynamicBitset* dst) {
        std::size_t major = begin / stride * block;
        std::size_t minor = begin % stride;
        for (std::size_t b = begin; b < end; ++b) {
          const std::size_t base = major + minor;
          // The line is decided by its first position that differs from
          // the fold's identity (a set bit for exists, a clear one for
          // forall).
          bool fill = kAll;
          for (std::size_t v = 0; v < n; ++v) {
            if (in.Test(base + v * stride) != kAll) {
              fill = !kAll;
              break;
            }
          }
          if (fill) {
            for (std::size_t v = 0; v < n; ++v) dst->Set(base + v * stride);
          }
          if (++minor == stride) {
            minor = 0;
            major += block;
          }
        }
      });
}

}  // namespace

AssignmentSet::AssignmentSet(std::size_t domain_size, std::size_t num_vars)
    : indexer_(domain_size, num_vars), bits_(indexer_.NumTuples(), false) {}

AssignmentSet AssignmentSet::Full(std::size_t domain_size,
                                  std::size_t num_vars) {
  AssignmentSet s(domain_size, num_vars);
  s.bits_.SetAll();
  return s;
}

AssignmentSet& AssignmentSet::AndWith(const AssignmentSet& other) {
  bits_ &= other.bits_;
  return *this;
}

AssignmentSet& AssignmentSet::OrWith(const AssignmentSet& other) {
  bits_ |= other.bits_;
  return *this;
}

AssignmentSet& AssignmentSet::Complement() {
  bits_.FlipAll();
  return *this;
}

AssignmentSet& AssignmentSet::SubtractWith(const AssignmentSet& other) {
  bits_.SubtractInPlace(other.bits_);
  return *this;
}

AssignmentSet AssignmentSet::ExistsVar(std::size_t var,
                                       ThreadPool* pool) const {
  assert(var < num_vars());
  AssignmentSet out(domain_size(), num_vars());
  QuantifyAxis<false>(bits_, domain_size(), indexer_.Stride(var), pool,
                      &out.bits_);
  return out;
}

AssignmentSet AssignmentSet::ForAllVar(std::size_t var,
                                       ThreadPool* pool) const {
  assert(var < num_vars());
  AssignmentSet out(domain_size(), num_vars());
  QuantifyAxis<true>(bits_, domain_size(), indexer_.Stride(var), pool,
                     &out.bits_);
  return out;
}

AssignmentSet AssignmentSet::Equality(std::size_t domain_size,
                                      std::size_t num_vars, std::size_t var_i,
                                      std::size_t var_j, ThreadPool* pool) {
  AssignmentSet out(domain_size, num_vars);
  const TupleIndexer& idx = out.indexer_;
  const std::size_t total = idx.NumTuples();
  // Word-aligned rank chunks: each chunk sets only its own words.
  PlanChunks(pool, total, total, kMinParallelBits, BitGrain)
      .Run([&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          if (idx.Digit(r, var_i) == idx.Digit(r, var_j)) out.bits_.Set(r);
        }
      });
  return out;
}

AssignmentSet AssignmentSet::VarEqualsConst(std::size_t domain_size,
                                            std::size_t num_vars,
                                            std::size_t var_i, Value c) {
  AssignmentSet out(domain_size, num_vars);
  const TupleIndexer& idx = out.indexer_;
  const std::size_t total = idx.NumTuples();
  for (std::size_t r = 0; r < total; ++r) {
    if (idx.Digit(r, var_i) == c) out.bits_.Set(r);
  }
  return out;
}

AssignmentSet AssignmentSet::FromAtom(std::size_t domain_size,
                                      std::size_t num_vars,
                                      const Relation& relation,
                                      const std::vector<std::size_t>& args,
                                      ThreadPool* pool) {
  assert(args.size() == relation.arity());
  AssignmentSet out(domain_size, num_vars);
  const TupleIndexer& idx = out.indexer_;
  const std::size_t total = idx.NumTuples();
  const std::size_t m = args.size();
  if (m == 0) {
    if (relation.AsBool()) out.bits_.SetAll();
    return out;
  }
  // Row-driven fill: walk the relation's rows and enumerate the free
  // coordinates of each, rather than ranking all n^k points and probing the
  // relation. The work is sum_rows n^{#free} <= n^k, typically far less for
  // sparse relations.
  std::vector<std::size_t> arg_of_coord(num_vars, m);  // m = "free"
  bool dup_args = false;
  for (std::size_t j = 0; j < m; ++j) {
    if (arg_of_coord[args[j]] != m) {
      dup_args = true;
    } else {
      arg_of_coord[args[j]] = j;
    }
  }
  std::vector<std::size_t> free_strides;
  for (std::size_t c = 0; c < num_vars; ++c) {
    if (arg_of_coord[c] == m) free_strides.push_back(idx.Stride(c));
  }
  const std::size_t n = domain_size;
  FillSharded(
      PlanChunks(pool, relation.size(), total, kMinParallelBits, ShardGrain),
      &out.bits_,
      [&](std::size_t begin, std::size_t end, DynamicBitset* dst) {
        std::vector<std::size_t> digits(free_strides.size());
        for (std::size_t i = begin; i < end; ++i) {
          const Value* row = relation.tuple(i);
          // Rows with out-of-domain values or inconsistent duplicate
          // arguments match no assignment, so skip.
          bool consistent = true;
          for (std::size_t j = 0; j < m && consistent; ++j) {
            if (row[j] >= n) consistent = false;
            if (dup_args && row[arg_of_coord[args[j]]] != row[j]) {
              consistent = false;
            }
          }
          if (!consistent) continue;
          std::size_t base = 0;
          for (std::size_t c = 0; c < num_vars; ++c) {
            if (arg_of_coord[c] != m) {
              base += row[arg_of_coord[c]] * idx.Stride(c);
            }
          }
          // Odometer over the free coordinates.
          std::fill(digits.begin(), digits.end(), 0);
          std::size_t offset = 0;
          for (;;) {
            dst->Set(base + offset);
            std::size_t j = 0;
            for (; j < digits.size(); ++j) {
              if (++digits[j] < n) {
                offset += free_strides[j];
                break;
              }
              digits[j] = 0;
              offset -= (n - 1) * free_strides[j];
            }
            if (j == digits.size()) break;
          }
        }
      });
  return out;
}

std::vector<std::size_t> AssignmentSet::BuildRemapTable(
    const TupleIndexer& idx, const std::vector<std::size_t>& targets,
    const std::vector<std::size_t>& sources, ThreadPool* pool) {
  assert(targets.size() == sources.size());
  const std::size_t total = idx.NumTuples();
  const std::size_t m = targets.size();
  std::vector<std::size_t> table(total);
  // table[r] slots are disjoint per rank; any chunking is race-free.
  PlanChunks(pool, total, total, kMinParallelBits, BitGrain)
      .Run([&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<Value> vals(m);
        for (std::size_t r = begin; r < end; ++r) {
          // Read all sources from the original rank first, then write
          // targets.
          for (std::size_t j = 0; j < m; ++j) {
            vals[j] = idx.Digit(r, sources[j]);
          }
          std::size_t rp = r;
          for (std::size_t j = 0; j < m; ++j) {
            rp = idx.WithDigit(rp, targets[j], vals[j]);
          }
          table[r] = rp;
        }
      });
  return table;
}

AssignmentSet AssignmentSet::RemapByTable(const std::vector<std::size_t>& table,
                                          ThreadPool* pool) const {
  assert(table.size() == indexer_.NumTuples());
  AssignmentSet out(domain_size(), num_vars());
  // Word-aligned output chunks: reads are arbitrary (table[r] points
  // anywhere), writes stay inside the chunk's own words.
  PlanChunks(pool, table.size(), table.size(), kMinParallelBits, BitGrain)
      .Run([&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          if (bits_.Test(table[r])) out.bits_.Set(r);
        }
      });
  return out;
}

AssignmentSet AssignmentSet::Remap(const std::vector<std::size_t>& targets,
                                   const std::vector<std::size_t>& sources,
                                   ThreadPool* pool) const {
  return RemapByTable(BuildRemapTable(indexer_, targets, sources, pool), pool);
}

Relation AssignmentSet::ToRelation(
    const std::vector<std::size_t>& vars) const {
  RelationBuilder b(vars.size());
  std::vector<Value> row(vars.size());
  for (std::size_t r = bits_.FindFirst(); r < bits_.size();
       r = bits_.FindNext(r + 1)) {
    for (std::size_t j = 0; j < vars.size(); ++j) {
      row[j] = indexer_.Digit(r, vars[j]);
    }
    b.Add(row.data());
  }
  return b.Build();
}

AssignmentSet& AssignmentSet::RestrictToAtom(
    const Relation& relation, const std::vector<std::size_t>& args) {
  AssignmentSet atom =
      FromAtom(domain_size(), num_vars(), relation, args);
  return AndWith(atom);
}

}  // namespace bvq
