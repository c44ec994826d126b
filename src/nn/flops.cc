#include "nn/flops.h"

namespace sp::nn
{

double
mlpForwardFlops(const std::vector<size_t> &dims, size_t batch)
{
    double flops = 0.0;
    for (size_t i = 0; i + 1 < dims.size(); ++i) {
        // GEMM: 2*B*out*in, bias add: B*out, activation: B*out.
        flops += 2.0 * batch * dims[i] * dims[i + 1];
        flops += 2.0 * batch * dims[i + 1];
    }
    return flops;
}

double
mlpBackwardFlops(const std::vector<size_t> &dims, size_t batch)
{
    double flops = 0.0;
    for (size_t i = 0; i + 1 < dims.size(); ++i) {
        // dX and dW GEMMs plus db reduction and activation backward.
        flops += 4.0 * batch * dims[i] * dims[i + 1];
        flops += 2.0 * batch * dims[i + 1];
    }
    return flops;
}

double
interactionForwardFlops(size_t num_tables, size_t dim, size_t batch)
{
    const double f = static_cast<double>(num_tables + 1);
    const double pairs = f * (f - 1.0) / 2.0;
    return 2.0 * batch * pairs * dim;
}

double
interactionBackwardFlops(size_t num_tables, size_t dim, size_t batch)
{
    // Each pair contributes two axpy passes of length dim.
    const double f = static_cast<double>(num_tables + 1);
    const double pairs = f * (f - 1.0) / 2.0;
    return 4.0 * batch * pairs * dim;
}

double
dlrmIterationFlops(const DlrmConfig &config, size_t batch)
{
    const auto bottom = config.bottomDims();
    const auto top = config.topDims();
    double flops = 0.0;
    flops += mlpForwardFlops(bottom, batch) +
             mlpBackwardFlops(bottom, batch);
    flops += mlpForwardFlops(top, batch) + mlpBackwardFlops(top, batch);
    flops += interactionForwardFlops(config.num_tables,
                                     config.embedding_dim, batch);
    flops += interactionBackwardFlops(config.num_tables,
                                      config.embedding_dim, batch);
    return flops;
}

double
dlrmForwardFlops(const DlrmConfig &config, size_t batch)
{
    double flops = 0.0;
    flops += mlpForwardFlops(config.bottomDims(), batch);
    flops += mlpForwardFlops(config.topDims(), batch);
    flops += interactionForwardFlops(config.num_tables,
                                     config.embedding_dim, batch);
    return flops;
}

} // namespace sp::nn
