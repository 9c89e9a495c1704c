// 2-D convolution (NCHW) implemented as im2col + GEMM.
//
// The im2col buffers from a training-mode forward are cached per batch
// element so the weight-gradient GEMM in backward() reuses them; the buffers
// themselves persist across steps (resized in place, not reallocated).
// Inference-mode forwards use arena scratch instead and free the cache.
// Both passes split the batch across the ExecContext's worker pool: forward
// writes are disjoint per item (bit-identical to serial), backward reduces
// per-chunk weight-gradient partials in chunk order (deterministic for a
// fixed thread count, within float tolerance of serial). Same-padding and
// strided convolutions are supported; dilation is not (the paper's models do
// not use it).
#pragma once

#include "nn/init.hpp"
#include "nn/layer.hpp"

namespace vcdl {

class Rng;

class Conv2D : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t pad, Init scheme, Rng& rng);
  /// Copies parameters/gradients but not the im2col cache.
  Conv2D(const Conv2D& other);

  /// x: [batch, in_channels, H, W] → [batch, out_channels, OH, OW].
  Tensor forward(const Tensor& x, ExecContext& ctx, bool training) override;
  Tensor backward(const Tensor& grad_out, ExecContext& ctx) override;

  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  std::size_t cache_bytes() const override;
  std::string kind() const override { return "conv2d"; }
  void write_spec(BinaryWriter& w) const override;
  std::unique_ptr<Layer> clone() const override;

  std::size_t out_height(std::size_t h) const { return (h + 2 * pad_ - kernel_) / stride_ + 1; }
  std::size_t out_width(std::size_t w) const { return (w + 2 * pad_ - kernel_) / stride_ + 1; }

 private:
  std::size_t in_c_, out_c_, kernel_, stride_, pad_;
  Init scheme_;
  Tensor w_;   // [out_c, in_c * k * k]
  Tensor b_;   // [out_c]
  Tensor dw_, db_;
  // Cached from training-mode forward for backward:
  std::vector<Tensor> cols_;          // one [in_c*k*k, OH*OW] matrix per item
  std::size_t last_h_ = 0, last_w_ = 0, last_batch_ = 0;
};

}  // namespace vcdl
