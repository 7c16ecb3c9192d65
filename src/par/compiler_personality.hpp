#pragma once
// Compiler personalities: how different Fortran toolchains lower the SAME
// `do concurrent` / OpenACC source onto a device.
//
// The follow-up portability study (arXiv:2408.07843) found that one DC
// source runs with very different fusion, reduction, and unified-memory
// behavior per compiler: nvfortran fuses OpenACC kernel regions and lowers
// the 202X `reduce` clause to the flipped-loop form; ifx maps offload
// through its OpenMP-target machinery (no ACC-style fusion or async
// queues, tree reductions, implicit unified shared memory for DC code);
// flang-era toolchains lower reductions to atomic blocks and simply ignore
// memory-placement hints. A personality captures those *lowering* choices
// as data, so every (code version x device x personality) cell of the
// portability matrix runs the same kernel bodies — one body per launch —
// and differs only in modeled time, never in physics.
//
// The Nvfortran personality is the identity: its traits reproduce the
// pre-matrix scheduler behavior bit-for-bit, which is what keeps every
// existing golden baseline valid.

#include <string>
#include <vector>

namespace simas::par {

enum class CompilerPersonality {
  Nvfortran = 0,  ///< nvfortran: the source paper's toolchain (reference)
  Ifx = 1,        ///< ifx-like: OpenMP-target lowering, USM default
  Flang = 2,      ///< flang-like: atomic-block reductions, hints ignored
};

/// How a personality lowers the constructs the scheduler accounts for
/// (folded into par::LoweringPolicy by lowering_policy()).
/// All fields are *policy* inputs — they gate launch merging, pick a
/// reduction traffic factor, or drop a hint — and never reach a kernel
/// body.
struct PersonalityTraits {
  CompilerPersonality personality = CompilerPersonality::Nvfortran;

  /// OpenACC fusion chains: may consecutive same-group kernels merge into
  /// one launch? (nvfortran's -acc does; OpenMP-target lowering keeps one
  /// target region per construct.)
  bool fuses_acc_chains = true;
  /// Are async-capable launches issued asynchronously (latency partially
  /// hidden), or does every construct synchronize like a bare `target`?
  bool async_launches = true;

  /// Traffic multiplier for atomic-RMW array reductions (ACC atomic / DC
  /// without reduce clause) on a GPU. nvfortran's contention cost is the
  /// paper's 1.35; tree lowering pays log-pass traffic instead.
  double atomic_reduce_traffic = 1.35;
  /// Traffic multiplier for the DC 202X `reduce` clause on a GPU.
  /// nvfortran flips the loop (paper Listing 5, factor 1.0); toolchains
  /// without that lowering fall back to trees or atomic blocks.
  double reduce_clause_traffic = 1.0;

  /// Does the runtime honor cudaMemPrefetchAsync-style bulk prefetch
  /// hints? When false the hint call is inert: pages still demand-fault.
  bool honors_mem_prefetch = true;
  /// Does the runtime honor cudaMemAdvise-style residency advice?
  bool honors_mem_advise = true;

  /// Does compiling DC for the device imply unified/managed memory even
  /// when the code version declares manual data management? (ifx's DC
  /// offload relies on unified shared memory; nvfortran honors
  /// -gpu=nomanaged.) Never applies to pure-OpenACC or CPU builds.
  bool implicit_um_for_dc = false;
};

/// Lowering traits of one personality. Nvfortran's are the identity
/// against the pre-matrix scheduler arithmetic.
PersonalityTraits personality_traits(CompilerPersonality p);

/// Short tag for keys and CLI ("nvf", "ifx", "flang").
const char* personality_tag(CompilerPersonality p);
/// Human-readable name ("nvfortran-like", ...).
const char* personality_name(CompilerPersonality p);

/// All personalities in matrix order (Nvfortran first: the reference).
std::vector<CompilerPersonality> all_personalities();

/// Parse a tag or name (case-sensitive, accepts both forms). Returns
/// false and leaves *out untouched on unknown input.
bool parse_personality(const std::string& s, CompilerPersonality* out);

}  // namespace simas::par
