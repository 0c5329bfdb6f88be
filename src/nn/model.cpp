#include "nn/model.hpp"

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace rog {
namespace nn {

Model &
Model::add(std::unique_ptr<Layer> layer)
{
    layers_.push_back(std::move(layer));
    return *this;
}

const Tensor &
Model::forward(const Tensor &input)
{
    ROG_ASSERT(!layers_.empty(), "forward on an empty model");
    activations_.resize(layers_.size());
    const Tensor *cur = &input;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        layers_[i]->forward(*cur, activations_[i]);
        cur = &activations_[i];
    }
    return activations_.back();
}

void
Model::backward(const Tensor &dloss)
{
    ROG_ASSERT(activations_.size() == layers_.size(),
               "backward without forward");
    grad_scratch_a_ = dloss;
    Tensor *dout = &grad_scratch_a_;
    Tensor *din = &grad_scratch_b_;
    for (std::size_t i = layers_.size(); i-- > 0;) {
        layers_[i]->backward(*dout, *din);
        std::swap(dout, din);
    }
}

std::vector<Parameter *>
Model::parameters()
{
    std::vector<Parameter *> out;
    for (auto &l : layers_)
        for (Parameter *p : l->parameters())
            out.push_back(p);
    return out;
}

void
Model::zeroGrad()
{
    for (Parameter *p : parameters())
        p->zeroGrad();
}

std::size_t
Model::parameterCount()
{
    std::size_t n = 0;
    for (Parameter *p : parameters())
        n += p->value.size();
    return n;
}

std::size_t
Model::rowCount()
{
    std::size_t n = 0;
    for (Parameter *p : parameters())
        n += p->value.rows();
    return n;
}

void
Model::copyParametersFrom(Model &other)
{
    auto mine = parameters();
    auto theirs = other.parameters();
    ROG_ASSERT(mine.size() == theirs.size(),
               "copyParametersFrom: architecture mismatch");
    for (std::size_t i = 0; i < mine.size(); ++i) {
        ROG_ASSERT(mine[i]->value.sameShape(theirs[i]->value),
                   "copyParametersFrom: shape mismatch at ",
                   mine[i]->name);
        tensor::copy(theirs[i]->value, mine[i]->value);
    }
}

Model
makeClassifier(const ClassifierConfig &cfg, Rng &rng)
{
    ROG_ASSERT(cfg.classes > 1, "classifier needs >= 2 classes");
    Model m;
    std::size_t in = cfg.input_dim;
    std::size_t idx = 0;
    for (std::size_t h : cfg.hidden) {
        m.add(std::make_unique<Linear>("fc" + std::to_string(idx++), in, h,
                                       rng));
        m.add(std::make_unique<Relu>());
        in = h;
    }
    m.add(std::make_unique<Linear>("head", in, cfg.classes, rng));
    return m;
}

Model
makeImplicitMap(const ImplicitMapConfig &cfg, Rng &rng)
{
    Model m;
    auto enc = std::make_unique<PositionalEncoding>(cfg.encoding_octaves);
    std::size_t in = enc->outputDim(cfg.input_dim);
    m.add(std::move(enc));
    std::size_t idx = 0;
    for (std::size_t h : cfg.hidden) {
        m.add(std::make_unique<Linear>("map" + std::to_string(idx++), in, h,
                                       rng));
        m.add(std::make_unique<Tanh>());
        in = h;
    }
    m.add(std::make_unique<Linear>("out", in, cfg.output_dim, rng));
    return m;
}

} // namespace nn
} // namespace rog
