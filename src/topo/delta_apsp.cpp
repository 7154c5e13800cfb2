#include "topo/delta_apsp.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace netsmith::topo {

void DeltaApsp::init(int n) {
  assert(n >= 0);
  if (n != n_) {
    n_ = n;
    dist_ = util::Matrix<int>(static_cast<std::size_t>(n_),
                              static_cast<std::size_t>(n_), kUnreachable);
    bfs_ = BitBfs(n_);
  }
  const auto rows = static_cast<std::size_t>(n_);
  row_sum_.assign(rows, 0);
  row_unreach_.assign(rows, 0);
  taken_.assign((rows + 63) / 64, 0);
  hop_sum_ = 0;
  unreachable_ = 0;
  journal_.clear();
  journal_rows_.clear();
  pending_ = false;
  resweeps_ = 0;
}

void DeltaApsp::sweep_row(const DiGraph& g, int r) {
  const auto t = bfs_.distances(g, r, &dist_(static_cast<std::size_t>(r), 0));
  hop_sum_ += t.hop_sum - row_sum_[static_cast<std::size_t>(r)];
  unreachable_ += t.unreached - row_unreach_[static_cast<std::size_t>(r)];
  row_sum_[static_cast<std::size_t>(r)] = t.hop_sum;
  row_unreach_[static_cast<std::size_t>(r)] = t.unreached;
}

void DeltaApsp::journal_and_sweep(const DiGraph& g, int r) {
  journal_.push_back({r, row_sum_[static_cast<std::size_t>(r)],
                      row_unreach_[static_cast<std::size_t>(r)]});
  const int* row = &dist_(static_cast<std::size_t>(r), 0);
  journal_rows_.insert(journal_rows_.end(), row, row + n_);
  sweep_row(g, r);
}

void DeltaApsp::rebuild(const DiGraph& g) {
  assert(g.num_nodes() == n_);
  journal_.clear();
  journal_rows_.clear();
  pending_ = false;
  for (int r = 0; r < n_; ++r) sweep_row(g, r);
}

int DeltaApsp::apply(const DiGraph& g, const EdgeChange* changes, int count) {
  const int affected = detect(g, changes, count);
  sweep(g, [](int) { return false; });
  return affected;
}

int DeltaApsp::detect(const DiGraph& g, const EdgeChange* changes,
                      int count) {
  assert(g.num_nodes() == n_);
  assert(!pending_ && "apply() without commit()/rollback()");
  affected_.clear();
  if (count <= 0) return 0;

  // The surviving-predecessor filter for removals is only proven for the
  // move shapes the annealer emits: at most one removed edge, or a
  // symmetric twin pair {(u,v), (v,u)} (see header). Any other batch falls
  // back to the plain on-some-shortest-path rule.
  int removed = 0, r0 = -1, r1 = -1;
  for (int c = 0; c < count; ++c) {
    if (changes[c].added) continue;
    (removed == 0 ? r0 : r1) = c;
    ++removed;
  }
  const bool sharp =
      removed <= 1 ||
      (removed == 2 && changes[r0].u == changes[r1].v &&
       changes[r0].v == changes[r1].u);

  // Union of per-edit affected sets, detected against the pre-edit rows.
  // Rows are tested 64 at a time: a branch-free pass over columns u and v
  // builds a word of candidate rows, and only candidates that no earlier
  // edit already took reach the predecessor filter. Rows join affected_ in
  // (edit, row) order.
  std::fill(taken_.begin(), taken_.end(), 0);
  const std::size_t stride = static_cast<std::size_t>(n_);
  for (int c = 0; c < count; ++c) {
    const int u = changes[c].u, v = changes[c].v;
    const bool added = changes[c].added;
    const auto& preds = g.in_neighbors(v);  // post-edit: u already absent
    for (int w = 0; w * 64 < n_; ++w) {
      const int lanes = std::min(64, n_ - w * 64);
      const int* base =
          dist_.data() + static_cast<std::size_t>(w) * 64 * stride;
      std::uint64_t cand = 0;
      if (added) {
        for (int b = 0; b < lanes; ++b) {
          const int* row = base + static_cast<std::size_t>(b) * stride;
          cand |= static_cast<std::uint64_t>(row[u] + 1 < row[v]) << b;
        }
      } else {
        for (int b = 0; b < lanes; ++b) {
          const int* row = base + static_cast<std::size_t>(b) * stride;
          cand |= static_cast<std::uint64_t>(row[u] + 1 == row[v]) << b;
        }
      }
      cand &= ~taken_[static_cast<std::size_t>(w)];
      if (!added && sharp) {
        for (std::uint64_t m = cand; m; m &= m - 1) {
          const int b = std::countr_zero(m);
          const int* row = base + static_cast<std::size_t>(b) * stride;
          for (const int p : preds) {
            if (row[p] + 1 == row[v]) {
              cand &= ~(1ULL << b);  // equal-length surviving predecessor
              break;
            }
          }
        }
      }
      taken_[static_cast<std::size_t>(w)] |= cand;
      for (; cand; cand &= cand - 1)
        affected_.push_back(w * 64 + std::countr_zero(cand));
    }
  }
  pending_ = true;  // an empty journal still satisfies commit()/rollback()
  resweeps_ += static_cast<std::int64_t>(affected_.size());
  return static_cast<int>(affected_.size());
}

void DeltaApsp::commit() {
  assert(pending_);
  journal_.clear();
  journal_rows_.clear();
  pending_ = false;
}

void DeltaApsp::rollback() {
  assert(pending_);
  for (std::size_t i = journal_.size(); i-- > 0;) {
    const Saved& s = journal_[i];
    hop_sum_ += s.sum - row_sum_[static_cast<std::size_t>(s.row)];
    unreachable_ += s.unreach - row_unreach_[static_cast<std::size_t>(s.row)];
    row_sum_[static_cast<std::size_t>(s.row)] = s.sum;
    row_unreach_[static_cast<std::size_t>(s.row)] = s.unreach;
    std::memcpy(&dist_(static_cast<std::size_t>(s.row), 0),
                journal_rows_.data() + i * static_cast<std::size_t>(n_),
                static_cast<std::size_t>(n_) * sizeof(int));
  }
  journal_.clear();
  journal_rows_.clear();
  pending_ = false;
}

}  // namespace netsmith::topo
