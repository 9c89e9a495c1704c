// Sequential model container.
//
// A Model owns a stack of layers plus helpers that the distributed system
// needs: cloning (every client trains its own copy), flat parameter get/set
// (the unit shipped between clients and parameter servers — the paper's
// "parameter copy" W), and parameter/gradient enumeration for optimizers.
// forward/backward take the ExecContext every layer runs on; the minibatch
// training step built on them lives in core/local_sgd.hpp.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace vcdl {

class Model {
 public:
  Model() = default;
  explicit Model(std::vector<std::unique_ptr<Layer>> layers);
  Model(const Model& other);
  Model& operator=(const Model& other);
  Model(Model&&) noexcept = default;
  Model& operator=(Model&&) noexcept = default;

  /// Appends a layer (builder style).
  Model& add(std::unique_ptr<Layer> layer);

  template <typename L, typename... Args>
  Model& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  /// Forward pass through every layer. `ctx` supplies the worker pool and
  /// scratch arena each layer may use; pass serial_exec_context() for the
  /// bit-exact serial path (no pool).
  Tensor forward(const Tensor& x, ExecContext& ctx, bool training = false);
  /// Backward pass; call after a training-mode forward with the loss gradient
  /// w.r.t. the output.
  void backward(const Tensor& grad_out, ExecContext& ctx);

  std::vector<Tensor*> params();
  std::vector<Tensor*> grads();
  void zero_grads();

  /// Total number of trainable scalars (the paper reports 4,941,578 for its
  /// ResNetV2; ours is reported by the benches for transparency).
  std::size_t parameter_count() const;

  /// Bytes held by the layers' transient activation caches (zero after an
  /// inference forward; clones start at zero).
  std::size_t cache_bytes() const;

  /// Copies all parameters into one contiguous vector (layer order).
  std::vector<float> flat_params() const;
  /// Loads parameters from a flat vector; size must match exactly.
  void set_flat_params(std::span<const float> values);

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace vcdl
