#pragma once
// The seven MAS code versions studied in the paper (Table I), expressed as
// engine configurations plus the code-modification flags that drive the
// directive accounting model.

#include <string>
#include <vector>

#include "par/engine.hpp"

namespace simas::variants {

enum class CodeVersion {
  Cpu = 0,     ///< Code 0: original CPU-only version
  A = 1,       ///< Code 1: OpenACC implementation
  AD = 2,      ///< Code 2: DC (F2018) + OpenACC reductions & data
  ADU = 3,     ///< Code 3: like AD but unified managed memory
  AD2XU = 4,   ///< Code 4: DC 202X reduce + unified memory
  D2XU = 5,    ///< Code 5: pure DC 202X, zero OpenACC directives
  D2XAd = 6,   ///< Code 6: DC 202X + OpenACC manual data management
};

/// Paper's short tag, e.g. "A", "AD2XU".
const char* version_tag(CodeVersion v);
/// Human description, paraphrasing Table I.
std::string version_description(CodeVersion v);
/// nvfortran compiler flags the paper lists for this version.
std::string version_compiler_flags(CodeVersion v);

/// Feature matrix of one code version, used both to configure the Engine
/// and to run the directive-count model.
struct VersionTraits {
  CodeVersion version;
  par::LoopModel loops;
  gpusim::MemoryMode memory;
  bool gpu = true;
  // Directive-model inputs (paper Sec. IV):
  bool acc_parallel_loops = false;   ///< plain loops still use OpenACC
  bool acc_scalar_reductions = false;///< reductions stay OpenACC (F2018 DC)
  bool acc_atomics = false;          ///< array reductions keep !$acc atomic
  bool acc_routine = false;          ///< routine directives still present
  bool acc_kernels = false;          ///< kernels regions still present
  bool acc_data_directives = false;  ///< manual data management directives
  bool acc_derived_type_data = false;///< enter/exit for derived types (UM)
  bool acc_declare = false;          ///< declare/update for device globals
  bool acc_set_device = false;       ///< set device_num (vs. launch script)
  bool init_wrapper_routines = false;///< Code 6 array-init wrappers
  bool needs_inline_flags = false;   ///< -Minline for pure routines (Code 5/6)
  bool needs_launch_script = false;  ///< CUDA_VISIBLE_DEVICES wrapper
  bool duplicate_cpu_setup_routines = true;  ///< removed in Code 5 (UM)
};

/// Traits for a given version, exactly following paper Sec. IV.
VersionTraits traits_of(CodeVersion v);

/// Engine configuration for the version on `device` with `host_threads`
/// real execution threads, as the Nvfortran personality (the source
/// paper's toolchain) would build it.
par::EngineConfig engine_config(CodeVersion v, gpusim::DeviceSpec device,
                                int host_threads = 1);

/// Portability-matrix variant: the same version built by `personality`.
/// Applies the personality's implicit-UM default (ifx-like DC offload
/// runs managed even for manual-memory versions) on top of the version
/// table; scheduler-level lowering differences are resolved from
/// EngineConfig::personality by par::lowering_policy(). Nvfortran
/// reproduces the two-argument overload exactly.
par::EngineConfig engine_config(CodeVersion v, gpusim::DeviceSpec device,
                                par::CompilerPersonality personality,
                                int host_threads = 1);

/// All seven versions in paper order.
std::vector<CodeVersion> all_versions();
/// The six GPU versions of Fig. 2 / Fig. 3 (Codes 1-6).
std::vector<CodeVersion> gpu_versions();

}  // namespace simas::variants
