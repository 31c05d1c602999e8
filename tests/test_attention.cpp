// Unit tests for multi-head self-attention.

#include <gtest/gtest.h>

#include <atomic>

#include "nn/attention.h"
#include "nn/gemm.h"
#include "test_util.h"

using namespace ascend::nn;

TEST(Msa, ForwardShape) {
  Rng rng(1);
  MultiHeadSelfAttention msa(8, 2, rng);
  Tensor x({2 * 4, 8});
  rng.fill_normal(x, 0, 1);
  const Tensor y = msa.forward(x, /*batch=*/2, /*tokens=*/4);
  EXPECT_EQ(y.dim(0), 8);
  EXPECT_EQ(y.dim(1), 8);
  EXPECT_THROW(msa.forward(Tensor({7, 8}), 2, 4), std::invalid_argument);
  EXPECT_THROW(MultiHeadSelfAttention(7, 2, rng), std::invalid_argument);
}

TEST(Msa, GradCheckExactSoftmax) {
  Rng rng(2);
  MultiHeadSelfAttention msa(6, 2, rng);
  Tensor x({1 * 3, 6});
  rng.fill_normal(x, 0, 0.7);
  Tensor gy({3, 6});
  rng.fill_normal(gy, 0, 1);

  auto loss = [&]() {
    const Tensor y = msa.forward(x, 1, 3);
    double l = 0;
    for (std::size_t i = 0; i < y.size(); ++i) l += y[i] * gy[i];
    return l;
  };
  std::vector<Param*> ps;
  msa.collect_params(ps);
  for (Param* p : ps) p->zero_grad();
  (void)msa.forward(x, 1, 3);
  const Tensor gx = msa.backward(gy);
  EXPECT_LT(ascend::testing::max_grad_error(x, loss, gx), 4e-2);
  // Also grad-check one weight matrix.
  EXPECT_LT(ascend::testing::max_grad_error(msa.qkv().weight().value, loss,
                                            msa.qkv().weight().grad),
            4e-2);
}

TEST(Msa, GradCheckApproxSoftmax) {
  Rng rng(3);
  MultiHeadSelfAttention msa(4, 1, rng, /*approx_k=*/2);
  msa.set_softmax_kind(SoftmaxKind::kApprox);
  Tensor x({3, 4});
  rng.fill_normal(x, 0, 0.7);
  Tensor gy({3, 4});
  rng.fill_normal(gy, 0, 1);

  auto loss = [&]() {
    const Tensor y = msa.forward(x, 1, 3);
    double l = 0;
    for (std::size_t i = 0; i < y.size(); ++i) l += y[i] * gy[i];
    return l;
  };
  (void)msa.forward(x, 1, 3);
  const Tensor gx = msa.backward(gy);
  EXPECT_LT(ascend::testing::max_grad_error(x, loss, gx), 4e-2);
}

TEST(Msa, ApproxDiffersFromExact) {
  Rng rng(4);
  MultiHeadSelfAttention msa(8, 2, rng, 2);
  Tensor x({4, 8});
  rng.fill_normal(x, 0, 1.0);
  const Tensor exact = msa.forward(x, 1, 4);
  msa.set_softmax_kind(SoftmaxKind::kApprox);
  const Tensor approx = msa.forward(x, 1, 4);
  double diff = 0;
  for (std::size_t i = 0; i < exact.size(); ++i) diff += std::fabs(exact[i] - approx[i]);
  EXPECT_GT(diff, 1e-4);  // k=2 truncation is visible
  EXPECT_LT(diff / static_cast<double>(exact.size()), 3.0);  // but not wild
}

// The hook acts on the const infer path only: forward and backward keep the
// float softmax whether or not a hook is installed. infer calls it once per
// (batch, head) score tile, with one row per token.
TEST(Msa, SoftmaxHookOverrides) {
  const int batch = 2, tokens = 3, heads = 2;
  Rng rng(5);
  MultiHeadSelfAttention msa(8, heads, rng);
  const MultiHeadSelfAttention& served = msa;
  Tensor x({batch * tokens, 8});
  rng.fill_normal(x, 0, 1);
  Tensor g({batch * tokens, 8});
  rng.fill_normal(g, 0, 1);
  const Tensor plain = msa.forward(x, batch, tokens);
  const Tensor plain_grad = msa.backward(g);

  // The hook runs inside infer's parallel head loop: count atomically.
  std::atomic<int> calls{0}, bad_rows{0};
  msa.set_softmax_hook([&](const float*, int rows, float* out) {
    ++calls;
    if (rows != tokens) ++bad_rows;
    for (int i = 0; i < rows * tokens; ++i) out[i] = 1.0f / static_cast<float>(tokens);
  });
  const Tensor hooked = served.infer(x, batch, tokens);
  EXPECT_EQ(calls.load(), batch * heads);
  EXPECT_EQ(bad_rows.load(), 0);
  bool any_diff = false;
  for (std::size_t i = 0; i < plain.size(); ++i) any_diff |= hooked[i] != plain[i];
  EXPECT_TRUE(any_diff);  // uniform attention is not the float softmax

  const Tensor fwd = msa.forward(x, batch, tokens);
  const Tensor grad = msa.backward(g);
  EXPECT_EQ(calls.load(), batch * heads);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(fwd[i], plain[i]) << i;
    EXPECT_EQ(grad[i], plain_grad[i]) << i;
  }

  msa.set_softmax_hook({});  // an empty hook clears it
  const Tensor cleared = served.infer(x, batch, tokens);
  EXPECT_EQ(calls.load(), batch * heads);
  for (std::size_t i = 0; i < plain.size(); ++i) EXPECT_EQ(cleared[i], plain[i]) << i;
}

// forward reads Q/K/V out of the gathered per-head caches through the
// blocked GEMMs, infer straight out of the fused qkv panels through the
// small-shape tile path; both must produce the same bits on every tier,
// below and above each tier's MR rows.
TEST(Msa, InferBitExactWithForward) {
  const gemm::Kernel saved = gemm::kernel();
  for (const gemm::Kernel tier :
       {gemm::Kernel::kBase, gemm::Kernel::kAvx2, gemm::Kernel::kAvx512}) {
    if (!gemm::kernel_supported(tier)) continue;
    gemm::set_kernel(tier);
    for (const int tokens : {5, 16, 37})
      for (const int heads : {1, 4})
        for (const int batch : {1, 3})
          for (const SoftmaxKind kind : {SoftmaxKind::kExact, SoftmaxKind::kApprox}) {
            SCOPED_TRACE(::testing::Message()
                         << gemm::kernel_name() << " tokens=" << tokens << " heads=" << heads
                         << " batch=" << batch
                         << (kind == SoftmaxKind::kExact ? " exact" : " approx"));
            Rng rng(6);
            MultiHeadSelfAttention msa(16, heads, rng, /*approx_k=*/2);
            msa.set_softmax_kind(kind);
            Tensor x({batch * tokens, 16});
            rng.fill_normal(x, 0, 1.0);
            const Tensor got = msa.infer(x, batch, tokens);
            const Tensor want = msa.forward(x, batch, tokens);
            ASSERT_EQ(got.shape(), want.shape());
            for (std::size_t i = 0; i < want.size(); ++i)
              ASSERT_EQ(got[i], want[i]) << "element " << i;
          }
  }
  gemm::set_kernel(saved);
}
