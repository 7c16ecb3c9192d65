#pragma once
// Gathers the directive-relevant inventory of SIMAS itself from the live
// kernel-site registry and a rank's memory manager.

#include "variants/directive_model.hpp"

namespace simas::variants {

/// Instantiate a canonical solver (Code 1, one A100, the bench grid),
/// step it twice so every kernel call-site registers itself, and build
/// the inventory from the process-wide SiteTable plus the arrays
/// registered in its memory manager.
CodeInventory canonical_inventory();

}  // namespace simas::variants
