#include "cholesky/cholesky_common.hpp"

#include "cholesky/confchox25d.hpp"
#include "cholesky/scalapack2d_chol.hpp"
#include "linalg/potrf.hpp"
#include "support/assert.hpp"

namespace conflux::cholesky {

void finish_cholesky(CholResult& result, const linalg::Matrix& a,
                     const CholConfig& cfg, linalg::Matrix l) {
  if (cfg.verify) result.residual = linalg::cholesky_residual(a, l.view());
  if (cfg.keep_factors)
    result.factors = std::make_shared<linalg::Matrix>(std::move(l));
}

std::unique_ptr<CholeskyAlgorithm> make_cholesky_algorithm(
    const std::string& name) {
  if (name == "COnfCHOX") return std::make_unique<Confchox25D>();
  if (name == "ScaLAPACK") return std::make_unique<Scalapack2DCholesky>();
  CONFLUX_EXPECTS_MSG(false, "unknown Cholesky algorithm '" << name << "'");
  return nullptr;  // unreachable
}

}  // namespace conflux::cholesky
