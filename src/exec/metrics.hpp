#pragma once

#include "core/metrics.hpp"

namespace dc::exec {

// Both engines keep one ledger, core::Metrics. These aliases remain because
// bench/e2e/ledger.hpp includes this header and names them.
using Metrics = core::Metrics;
using InstanceMetrics = core::InstanceMetrics;

}  // namespace dc::exec
