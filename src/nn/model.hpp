/**
 * @file
 * Sequential model container.
 *
 * A Model owns an ordered list of layers, exposes the concatenated
 * parameter list (the unit the core library partitions into rows), and
 * provides whole-batch forward/backward. Helper factories build the two
 * workload models used in the paper's evaluation.
 */
#ifndef ROG_NN_MODEL_HPP
#define ROG_NN_MODEL_HPP

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.hpp"

namespace rog {
namespace nn {

/** An ordered stack of layers trained end to end. */
class Model
{
  public:
    Model() = default;

    // Models hold caches; copying mid-training is a bug, cloning weights
    // is done explicitly via copyParametersFrom().
    Model(const Model &) = delete;
    Model &operator=(const Model &) = delete;
    Model(Model &&) = default;
    Model &operator=(Model &&) = default;

    /** Append a layer; returns *this for chaining. */
    Model &add(std::unique_ptr<Layer> layer);

    /** Forward pass over a batch; returns the final activation. */
    const Tensor &forward(const Tensor &input);

    /** Backward pass from the loss gradient w.r.t. the output. */
    void backward(const Tensor &dloss);

    /** All learnable parameters in layer order. */
    std::vector<Parameter *> parameters();

    /** Zero all parameter gradients. */
    void zeroGrad();

    /** Total learnable element count. */
    std::size_t parameterCount();

    /** Total number of parameter-matrix rows (the ROG sync unit). */
    std::size_t rowCount();

    /**
     * Copy parameter *values* from another model with an identical
     * architecture (used to replicate one initialization across
     * simulated workers). @pre same architecture
     */
    void copyParametersFrom(Model &other);

  private:
    std::vector<std::unique_ptr<Layer>> layers_;
    std::vector<Tensor> activations_;
    Tensor grad_scratch_a_;
    Tensor grad_scratch_b_;
};

/** Configuration for the CRUDA-style MLP classifier. */
struct ClassifierConfig
{
    std::size_t input_dim = 32;
    std::vector<std::size_t> hidden = {128, 128, 64};
    std::size_t classes = 20;
};

/**
 * Build the CRUDA stand-in: an MLP classifier (our ConvMLP substitute;
 * see DESIGN.md). @param rng weight init stream.
 */
Model makeClassifier(const ClassifierConfig &cfg, Rng &rng);

/** Configuration for the CRIMP-style implicit map regressor. */
struct ImplicitMapConfig
{
    std::size_t input_dim = 3;          //!< 3-D query point.
    std::size_t encoding_octaves = 4;   //!< positional encoding L.
    std::vector<std::size_t> hidden = {64, 64};
    std::size_t output_dim = 1;         //!< scene value (depth/SDF).
};

/**
 * Build the CRIMP stand-in: positional encoding + MLP regressor (our
 * nice-slam substitute; see DESIGN.md). @param rng weight init stream.
 */
Model makeImplicitMap(const ImplicitMapConfig &cfg, Rng &rng);

} // namespace nn
} // namespace rog

#endif // ROG_NN_MODEL_HPP
