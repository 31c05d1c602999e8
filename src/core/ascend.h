#pragma once
// ascend.h — umbrella header for the ASCEND library.
//
// Layers (bottom up):
//   ascend::sc   — stochastic-computing substrate: encodings, arithmetic,
//                  sorting networks, the baseline nonlinear units, and the
//                  paper's gate-assisted SI GELU + iterative approximate
//                  softmax circuit models.
//   ascend::hw   — gate-level area/delay/ADP cost model.
//   ascend::nn   — tensor/layer/optimizer substrate with LSQ quantization.
//   ascend::vit  — compact ViT, synthetic dataset, the two-stage training
//                  pipeline, and SC-emulated inference.
//   ascend::runtime — batched inference serving: thread pool, dynamic
//                  request batcher, transfer-function LUT cache, engine.
//   ascend::serialize — versioned mmap-able checkpoint container and the
//                  model save/load + registry cold-start wiring.
//   ascend::core — accelerator-level composition and design-space
//                  exploration.

#include "core/accelerator.h"
#include "core/dse.h"
#include "hw/cell_library.h"
#include "hw/cost_model.h"
#include "hw/gate_inventory.h"
#include "hw/report.h"
#include "nn/approx_softmax.h"
#include "nn/attention.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "nn/quant.h"
#include "nn/rng.h"
#include "nn/tensor.h"
#include "runtime/batcher.h"
#include "runtime/engine.h"
#include "runtime/failpoint.h"
#include "runtime/registry.h"
#include "runtime/servable.h"
#include "runtime/tf_cache.h"
#include "runtime/thread_pool.h"
#include "sc/bernstein.h"
#include "sc/bitvec.h"
#include "sc/bsn.h"
#include "sc/fsm_units.h"
#include "sc/gate_si.h"
#include "sc/si.h"
#include "sc/sng.h"
#include "sc/softmax_fsm.h"
#include "sc/softmax_iter.h"
#include "sc/stoch_arith.h"
#include "sc/stoch_stream.h"
#include "sc/therm_arith.h"
#include "sc/therm_stream.h"
#include "serialize/checkpoint.h"
#include "serialize/model_io.h"
#include "vit/config.h"
#include "vit/dataset.h"
#include "vit/model.h"
#include "vit/sc_inference.h"
#include "vit/servable.h"
#include "vit/train.h"
