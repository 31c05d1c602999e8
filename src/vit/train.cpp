#include "vit/train.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

#include "nn/loss.h"
#include "nn/optim.h"

namespace ascend::vit {

using nn::Tensor;

namespace {

/// Top-1 accuracy over `data` in order, `batch_size` samples per call of
/// `logits_of` (images [B, pixels] -> logits [B, classes]) — the one
/// batching/argmax loop behind both evaluate() overloads.
template <typename LogitsOf>
double accuracy(const Dataset& data, int batch_size, LogitsOf&& logits_of) {
  const int n = data.size();
  int correct = 0;
  for (int start = 0; start < n; start += batch_size) {
    const int end = std::min(n, start + batch_size);
    std::vector<int> idx(static_cast<std::size_t>(end - start));
    std::iota(idx.begin(), idx.end(), start);
    const Batch batch = take_batch(data, idx);
    const Tensor logits = logits_of(batch.images);
    for (int r = 0; r < logits.dim(0); ++r) {
      int best = 0;
      for (int c = 1; c < logits.dim(1); ++c)
        if (logits.at(r, c) > logits.at(r, best)) best = c;
      if (best == batch.labels[static_cast<std::size_t>(r)]) ++correct;
    }
  }
  return 100.0 * correct / std::max(n, 1);
}

}  // namespace

double evaluate(VisionTransformer& model, const Dataset& data, int batch_size) {
  return accuracy(data, batch_size,
                  [&](const Tensor& images) { return model.forward(images, /*training=*/false); });
}

double evaluate(const runtime::Servable& servable, const Dataset& data, int batch_size) {
  return accuracy(data, batch_size, [&](const Tensor& images) { return servable.infer(images); });
}

double train_model(VisionTransformer& student, VisionTransformer* teacher, const Dataset& data,
                   const TrainOptions& opt) {
  std::mt19937_64 shuffle_rng(opt.seed);
  const int n = data.size();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  // Warm-up forward initialises any freshly configured LSQ steps so they are
  // present in the optimizer's parameter list.
  {
    std::vector<int> idx(static_cast<std::size_t>(std::min(8, n)));
    std::iota(idx.begin(), idx.end(), 0);
    const Batch warm = take_batch(data, idx);
    (void)student.forward(warm.images, /*training=*/true);
  }
  nn::AdamW optim(student.params(), opt.lr, 0.9f, 0.999f, 1e-8f, opt.weight_decay);

  const long long steps_per_epoch = (n + opt.batch_size - 1) / opt.batch_size;
  const long long total_steps = steps_per_epoch * opt.epochs;
  long long step = 0;
  double last_loss = 0.0;

  for (int epoch = 0; epoch < opt.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), shuffle_rng);
    double epoch_loss = 0.0;
    int batches = 0;
    for (int start = 0; start < n; start += opt.batch_size) {
      const int end = std::min(n, start + opt.batch_size);
      std::vector<int> idx(order.begin() + start, order.begin() + end);
      const Batch batch = take_batch(data, idx);

      optim.zero_grad();
      optim.set_lr(nn::cosine_lr(opt.lr, step, total_steps));
      const Tensor logits = student.forward(batch.images, /*training=*/true);

      nn::LossResult ce = nn::cross_entropy(logits, batch.labels);
      double loss = ce.value;
      Tensor grad_logits = ce.grad;
      std::vector<Tensor> feature_grads;

      if (teacher != nullptr && opt.use_kd) {
        const Tensor t_logits = teacher->forward(batch.images, /*training=*/false);
        nn::LossResult kl = nn::kl_distill(logits, t_logits);
        loss += kl.value;
        nn::add_inplace(grad_logits, kl.grad);

        const auto& s_feats = student.block_outputs();
        const auto& t_feats = teacher->block_outputs();
        const std::size_t m = std::min(s_feats.size(), t_feats.size());
        feature_grads.resize(s_feats.size());
        for (std::size_t i = 0; i < m; ++i) {
          nn::LossResult fm = nn::mse(s_feats[i], t_feats[i]);
          // Normalise by the teacher feature power: keeps the distillation
          // term scale-free (an LN teacher and a BN student have very
          // different feature magnitudes, and raw MSE would swamp the task
          // loss in the LN->BN swap stage).
          double power = 0.0;
          for (std::size_t e = 0; e < t_feats[i].size(); ++e)
            power += static_cast<double>(t_feats[i][e]) * t_feats[i][e];
          power /= std::max<std::size_t>(t_feats[i].size(), 1);
          const float coeff = opt.kd_beta /
                              (static_cast<float>(std::max<std::size_t>(m, 1)) *
                               static_cast<float>(std::max(power, 1e-3)));
          loss += coeff * fm.value;
          feature_grads[i] = nn::scale(fm.grad, coeff);
        }
      }

      student.backward(grad_logits, feature_grads.empty() ? nullptr : &feature_grads);
      optim.step();
      ++step;
      epoch_loss += loss;
      ++batches;
    }
    last_loss = epoch_loss / std::max(batches, 1);
    if (opt.verbose)
      std::printf("  epoch %2d/%d  loss %.4f\n", epoch + 1, opt.epochs, last_loss);
  }
  return last_loss;
}

PipelineResult run_ascend_pipeline(const PipelineOptions& opt, const Dataset& train_set,
                                   const Dataset& test_set) {
  PipelineResult res;
  TrainOptions tr;
  tr.epochs = opt.stage_epochs;
  tr.batch_size = opt.batch_size;
  tr.lr = opt.stage_lr;
  tr.seed = opt.seed;
  tr.verbose = opt.verbose;

  auto log = [&](const char* msg) {
    if (opt.verbose) std::printf("[pipeline] %s\n", msg);
  };

  // --- Reference: FP LN-ViT ------------------------------------------------
  VitConfig ln_cfg = opt.config;
  ln_cfg.norm = NormKind::kLayerNorm;
  VisionTransformer fp_ln(ln_cfg, opt.seed);
  log("training FP LN-ViT");
  train_model(fp_ln, nullptr, train_set, tr);
  res.acc_fp_ln = evaluate(fp_ln, test_set);

  // --- FP BN-ViT (LN -> BN swap with KD) ------------------------------------
  VitConfig bn_cfg = opt.config;
  bn_cfg.norm = NormKind::kBatchNorm;
  VisionTransformer fp_bn(bn_cfg, opt.seed + 1);
  log("training FP BN-ViT (KD from LN-ViT)");
  train_model(fp_bn, &fp_ln, train_set, tr);
  res.acc_fp_bn = evaluate(fp_bn, test_set);

  // --- Baseline: direct W2-A2-R16 quantization (with KD, no progression) ----
  {
    VisionTransformer direct(bn_cfg, opt.seed + 2);
    direct.apply_precision(PrecisionSpec::w2a2r16());
    log("training baseline direct W2-A2-R16 (KD from FP BN-ViT)");
    train_model(direct, &fp_bn, train_set, tr);
    res.acc_baseline_direct = evaluate(direct, test_set);
  }

  // --- Progressive quantization ---------------------------------------------
  // Step 1: W16-A16-R16, init + teacher = FP BN-ViT.
  VisionTransformer w16(bn_cfg, opt.seed + 3);
  w16.copy_weights_from(fp_bn);
  w16.apply_precision(PrecisionSpec::w16a16r16());
  log("progressive step 1: W16-A16-R16");
  train_model(w16, &fp_bn, train_set, tr);

  // Step 2: W16-A2-R16, init = step 1, teacher = W16-A16-R16.
  VisionTransformer w16a2(bn_cfg, opt.seed + 4);
  w16a2.copy_weights_from(w16);
  w16a2.apply_precision(PrecisionSpec::w16a2r16());
  log("progressive step 2: W16-A2-R16");
  train_model(w16a2, &w16, train_set, tr);

  // Step 3: W2-A2-R16, init = step 2, teacher = W16-A16-R16.
  auto w2a2 = std::make_unique<VisionTransformer>(bn_cfg, opt.seed + 5);
  w2a2->copy_weights_from(w16a2);
  w2a2->apply_precision(PrecisionSpec::w2a2r16());
  log("progressive step 3: W2-A2-R16");
  train_model(*w2a2, &w16, train_set, tr);
  res.acc_progressive = evaluate(*w2a2, test_set);

  // --- Stage 2: approximate softmax ------------------------------------------
  w2a2->set_softmax_kind(nn::SoftmaxKind::kApprox);
  res.acc_approx = evaluate(*w2a2, test_set);

  TrainOptions ft = tr;
  ft.epochs = opt.finetune_epochs;
  ft.lr = opt.finetune_lr;
  log("stage 2: approx-softmax-aware fine-tuning");
  train_model(*w2a2, &w16, train_set, ft);
  res.acc_approx_ft = evaluate(*w2a2, test_set);

  res.sc_friendly = std::move(w2a2);
  return res;
}

}  // namespace ascend::vit
