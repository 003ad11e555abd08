// perfbench-reference: a fixed CPU and memory kernel that measures how fast
// the host is right now, so run.py can take host drift out of the timings.
//
//   perfbench-reference
//
// Prints one JSON line: {"seconds": <kernel wall time>, "checksum": <n>}.
//
// A shared virtual host runs the same code up to 1.6x slower for minutes
// at a time, and CPU time slows with wall time, so no statistic over one
// run's own samples removes the drift. run.py starts this program right
// after every workload process and divides the workload's time by this
// kernel's time. The kernel does the kinds of work the simulator does:
// heap allocation, ordered and hashed maps, string keys, virtual calls,
// integer hashing and dependent loads from a working set larger than L2.
// It links nothing from src/, so no change to the library can change it.
//
// Changing this file changes the unit of every time metric: measure the
// parent commit again after such a change.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

std::uint64_t mix(std::uint64_t x) {  // SplitMix64 finaliser
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Dependent loads through a random cyclic permutation of 16 MiB.
std::uint64_t pointer_chase() {
  const std::size_t n = std::size_t{1} << 22;
  std::vector<std::uint32_t> next(n);
  for (std::size_t i = 0; i < n; ++i) next[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(next[i], next[mix(i) % (i + 1)]);
  }
  std::uint32_t p = 0;
  for (int k = 0; k < 600000; ++k) p = next[p];
  return p;
}

/// Insert, look up and erase in a node-based ordered map.
std::uint64_t ordered_map_churn() {
  std::map<std::uint64_t, std::uint64_t> m;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 150000; ++i) {
    m[mix(i) % 200000] += i;
    if (i % 3 == 0) {
      const auto it = m.lower_bound(mix(i + 7) % 200000);
      if (it != m.end()) {
        acc += it->second;
        m.erase(it);
      }
    }
  }
  return acc + m.size();
}

/// String-keyed hash map of small vectors.
std::uint64_t string_map_churn() {
  std::unordered_map<std::string, std::vector<std::uint32_t>> h;
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < 120000; ++i) {
    const std::string key = "k" + std::to_string(mix(i) % 50000);
    std::vector<std::uint32_t>& v = h[key];
    v.push_back(i);
    if (v.size() > 4) {
      acc += v.front();
      h.erase(key);
    }
  }
  return acc + h.size();
}

struct Node {
  virtual ~Node() = default;
  virtual std::uint64_t step(std::uint64_t x) = 0;
};
struct Window : Node {
  std::vector<std::uint64_t> v;
  std::uint64_t step(std::uint64_t x) override {
    v.push_back(x);
    if (v.size() > 6) v.erase(v.begin());
    return v.front() ^ x;
  }
};
struct Text : Node {
  std::string s;
  std::uint64_t step(std::uint64_t x) override {
    s = std::to_string(x % 100000);
    return s.size() + static_cast<unsigned char>(s[0]);
  }
};
struct Ledger : Node {
  std::map<std::uint32_t, std::uint64_t> m;
  std::uint64_t step(std::uint64_t x) override {
    m[static_cast<std::uint32_t>(x % 16)] += x;
    return m.begin()->second;
  }
};
struct Hasher : Node {
  std::uint64_t a = 1;
  std::uint64_t step(std::uint64_t x) override {
    for (int i = 0; i < 8; ++i) a = mix(a + x);
    return a;
  }
};

/// Virtual calls over freshly allocated heterogeneous objects.
std::uint64_t virtual_dispatch() {
  std::uint64_t acc = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<std::unique_ptr<Node>> nodes;
    for (int i = 0; i < 2000; ++i) {
      switch (mix(static_cast<std::uint64_t>(i + round)) % 4) {
        case 0: nodes.push_back(std::make_unique<Window>()); break;
        case 1: nodes.push_back(std::make_unique<Text>()); break;
        case 2: nodes.push_back(std::make_unique<Ledger>()); break;
        default: nodes.push_back(std::make_unique<Hasher>()); break;
      }
    }
    for (int k = 0; k < 10; ++k) {
      for (const auto& node : nodes) acc += node->step(acc + k);
    }
  }
  return acc;
}

/// Integer hashing into small sorted vectors.
std::uint64_t hash_and_sort(std::uint64_t acc) {
  for (std::uint64_t i = 0; i < 300000; ++i) {
    std::vector<std::uint64_t> v(8);
    for (std::uint64_t& x : v) {
      x = mix(acc + i);
      acc ^= x;
    }
    std::sort(v.begin(), v.end());
    acc += v[3];
  }
  return acc;
}

}  // namespace

int main() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t checksum = pointer_chase();
  checksum += ordered_map_churn();
  checksum += string_map_churn();
  checksum += virtual_dispatch();
  checksum = hash_and_sort(checksum);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("{\"seconds\": %.9f, \"checksum\": %llu}\n", seconds,
              static_cast<unsigned long long>(checksum));
  return 0;
}
