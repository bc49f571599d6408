// Kernel registry: the code-generation stand-in.
//
// The paper's Toolkit/Kernel Generator emits one tailored kernel per
// (application, architecture, variant) before compilation; here the same
// role is played by C++ templates instantiated per PDE type, with the order
// and ISA as runtime configuration. make_stp_kernel is the single entry
// point the engine and the benchmarks use to obtain a configured kernel.
#pragma once

#include <memory>
#include <string>

#include "exastp/common/check.h"
#include "exastp/kernels/aosoa_stp.h"
#include "exastp/kernels/generic_stp.h"
#include "exastp/kernels/log_stp.h"
#include "exastp/kernels/soa_uf_stp.h"
#include "exastp/kernels/splitck_stp.h"
#include "exastp/kernels/stp_common.h"
#include "exastp/pde/pde_base.h"

namespace exastp {

/// Parses "generic" / "log" / "splitck" / "aosoa_splitck" (alias "aosoa") /
/// "soa_uf_splitck" (alias "soa_uf"); throws on unknown names. The inverse
/// mapping for reporting is variant_name() (stp_common.h).
StpVariant parse_variant(const std::string& name);

/// All variants make_stp_kernel dispatches, in the order the paper
/// introduces them — including the rejected SoA-UF transpose ablation.
inline constexpr StpVariant kAllVariants[] = {
    StpVariant::kGeneric, StpVariant::kLog, StpVariant::kSplitCk,
    StpVariant::kAosoaSplitCk, StpVariant::kSoaUfSplitCk};

namespace detail {

/// Wraps a kernel object (anything with layout(), workspace_bytes() and
/// compute()) into the type-erased StpKernel; the closure shares `impl`.
template <class Impl>
StpKernel wrap(StpVariant variant, std::shared_ptr<Impl> impl,
               Precision precision = Precision::kF64) {
  const AosLayout layout = impl->layout();
  const std::size_t footprint = impl->workspace_bytes();
  return StpKernel(variant, layout, footprint,
                   [impl = std::move(impl)](
                       const double* q, double dt,
                       const std::array<double, 3>& inv_dx,
                       const SourceTerm* source, const StpOutputs& out) {
                     impl->compute(q, dt, inv_dx, source, out);
                   },
                   precision);
}

/// fp32 instantiations of the two SplitCK-family kernels. Only these two
/// variants carry an fp32 path: they are the memory-bound production
/// kernels where halved DOF bytes pay off; the generic/LoG/SoA-UF variants
/// exist as measured ablations of the paper's fp64 progression and stay
/// double-only.
template <class Pde>
StpKernel make_f32_kernel(Pde pde, StpVariant variant, int order, Isa isa,
                          NodeFamily family) {
  switch (variant) {
    case StpVariant::kSplitCk:
      return wrap(variant,
                  std::make_shared<SplitCkStpT<Pde, float>>(std::move(pde),
                                                            order, isa, family),
                  Precision::kF32);
    case StpVariant::kAosoaSplitCk:
      return wrap(variant,
                  std::make_shared<AosoaStpT<Pde, float>>(std::move(pde),
                                                          order, isa, family),
                  Precision::kF32);
    default:
      EXASTP_FAIL("precision=fp32 supports variants splitck and "
                  "aosoa_splitck; variant " +
                  variant_name(variant) + " is fp64-only");
  }
}

/// Builds the kernel without a fork factory; make_stp_kernel adds it.
template <class Pde>
StpKernel make_stp_kernel_impl(Pde pde, StpVariant variant, int order,
                               Isa isa, NodeFamily family,
                               Precision precision) {
  if (precision == Precision::kF32)
    return make_f32_kernel(std::move(pde), variant, order, isa, family);
  switch (variant) {
    case StpVariant::kGeneric: {
      // The generic kernel is runtime-dimensioned and calls the PDE through
      // the virtual interface, like ExaHyPE's default kernels. It always
      // uses the unpadded scalar layout regardless of `isa`.
      auto adapter = std::make_shared<PdeAdapter<Pde>>(std::move(pde));
      return make_generic_stp(adapter, order, family);
    }
    case StpVariant::kLog:
      return wrap(variant, std::make_shared<LogStp<Pde>>(std::move(pde), order,
                                                         isa, family));
    case StpVariant::kSplitCk:
      return wrap(variant, std::make_shared<SplitCkStp<Pde>>(
                               std::move(pde), order, isa, family));
    case StpVariant::kAosoaSplitCk:
      return wrap(variant, std::make_shared<AosoaStp<Pde>>(std::move(pde),
                                                           order, isa, family));
    case StpVariant::kSoaUfSplitCk:
      return wrap(variant, std::make_shared<SoaUfStp<Pde>>(std::move(pde),
                                                           order, isa, family));
  }
  EXASTP_FAIL("unknown STP variant");
}

}  // namespace detail

template <class Pde>
StpKernel make_stp_kernel(Pde pde, StpVariant variant, int order, Isa isa,
                          NodeFamily family = NodeFamily::kGaussLegendre,
                          Precision precision = Precision::kF64) {
  StpKernel kernel = detail::make_stp_kernel_impl(pde, variant, order, isa,
                                                  family, precision);
  // The fork factory re-runs this very function, so clones can fork again
  // (each carries its own workspace; the Pde value is copied per clone).
  kernel.set_fork(
      [pde = std::move(pde), variant, order, isa, family, precision] {
        return make_stp_kernel(pde, variant, order, isa, family, precision);
      });
  return kernel;
}

}  // namespace exastp
