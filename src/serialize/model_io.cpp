// model_io.cpp — VisionTransformer <-> checkpoint mapping (see model_io.h),
// plus the serialize-layer definitions of vit::VisionTransformer::save/load
// and runtime::ModelRegistry::register_from_file. Those members are declared
// in lower-layer headers but defined here: serialization sits above nn/vit/
// runtime in the link order, and defining the members in this library keeps
// the lower layers free of any checkpoint dependency while giving callers
// the natural `model.save(path)` / `registry.register_from_file(...)` spelling.

#include "serialize/model_io.h"

#include <cmath>
#include <functional>
#include <map>
#include <sstream>

#include "runtime/arena.h"
#include "runtime/registry.h"
#include "vit/sc_inference.h"
#include "vit/servable.h"

namespace ascend::serialize {
namespace {

using nn::LsqQuantizer;
using nn::Param;
using nn::Tensor;
using Kind = CheckpointError::Kind;

[[noreturn]] void fail(Kind kind, const std::string& msg) { throw CheckpointError(kind, msg); }

std::vector<int> dims_of(const Tensor& t) {
  std::vector<int> d;
  for (std::size_t i = 0; i < t.shape().size(); ++i) d.push_back(t.shape()[i]);
  return d;
}

// ---------------------------------------------------------------------------
// Walker: one deterministic traversal defines the record namespace for both
// save and load — the two can never drift apart.

struct Visitor {
  std::function<void(const std::string&, Param&)> param;
  std::function<void(const std::string&, Tensor&)> stat;  ///< BN running stats
  std::function<void(const std::string&, LsqQuantizer&)> quant;
};

void visit_norm(const std::string& prefix, vit::NormLayer& norm, const Visitor& v) {
  if (nn::LayerNorm* ln = norm.layer_norm()) {
    v.param(prefix + ".gamma", ln->gamma());
    v.param(prefix + ".beta", ln->beta());
  } else {
    nn::BatchNorm* bn = norm.batch_norm();
    v.param(prefix + ".gamma", bn->gamma());
    v.param(prefix + ".beta", bn->beta());
    v.stat(prefix + ".running_mean", bn->running_mean());
    v.stat(prefix + ".running_var", bn->running_var());
  }
}

void visit_linear(const std::string& prefix, nn::Linear& lin, const Visitor& v,
                  bool with_quants) {
  v.param(prefix + ".weight", lin.weight());
  if (!lin.bias().value.empty()) v.param(prefix + ".bias", lin.bias());
  if (with_quants) {
    v.quant(prefix + ".wq", lin.weight_quant());
    v.quant(prefix + ".aq", lin.input_quant());
  }
}

void walk_model(vit::VisionTransformer& m, const Visitor& v) {
  // Patch embed and head stay full precision by construction (model.h), so
  // their quantizers carry no state worth serializing.
  visit_linear("patch_embed", m.patch_embed(), v, /*with_quants=*/false);
  v.param("pos_embed", m.pos_embed());
  auto& blocks = m.blocks();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::string p = "blocks." + std::to_string(i);
    vit::EncoderBlock& blk = blocks[i];
    visit_norm(p + ".norm1", blk.norm1(), v);
    visit_linear(p + ".msa.qkv", blk.msa().qkv(), v, true);
    visit_linear(p + ".msa.proj", blk.msa().proj(), v, true);
    v.quant(p + ".rq1", blk.residual_quant1());
    visit_norm(p + ".norm2", blk.norm2(), v);
    visit_linear(p + ".mlp.fc1", blk.mlp().fc1(), v, true);
    visit_linear(p + ".mlp.fc2", blk.mlp().fc2(), v, true);
    v.quant(p + ".rq2", blk.residual_quant2());
  }
  visit_norm("final_norm", m.final_norm(), v);
  visit_linear("head", m.head(), v, /*with_quants=*/false);
}

// ---------------------------------------------------------------------------
// Config block: key=value lines, one per topology / precision knob.

std::string make_config(vit::VisionTransformer& m) {
  const vit::VitConfig& c = m.config();
  const vit::PrecisionSpec& p = m.precision();
  const bool approx = !m.blocks().empty() &&
                      m.blocks().front().msa().softmax_kind() == nn::SoftmaxKind::kApprox;
  std::ostringstream os;
  os << "format=ascend-vit\n"
     << "image_size=" << c.image_size << "\npatch_size=" << c.patch_size
     << "\nchannels=" << c.channels << "\ndim=" << c.dim << "\nlayers=" << c.layers
     << "\nheads=" << c.heads << "\nmlp_ratio=" << c.mlp_ratio << "\nclasses=" << c.classes
     << "\nnorm=" << (c.norm == vit::NormKind::kBatchNorm ? "bn" : "ln")
     << "\napprox_softmax_k=" << c.approx_softmax_k
     << "\nsoftmax=" << (approx ? "approx" : "exact") << "\nprecision.w=" << p.w_bsl
     << "\nprecision.a=" << p.a_bsl << "\nprecision.r=" << p.r_bsl << "\n";
  return os.str();
}

struct ParsedConfig {
  vit::VitConfig topology;
  vit::PrecisionSpec precision;
  nn::SoftmaxKind softmax = nn::SoftmaxKind::kExact;
};

ParsedConfig parse_config(const std::string& text) {
  std::map<std::string, std::string> kv;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const auto eq = line.find('=');
    if (eq != std::string::npos) kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  auto get = [&](const char* key) -> const std::string& {
    auto it = kv.find(key);
    if (it == kv.end()) fail(Kind::kSchema, std::string("config missing key '") + key + "'");
    return it->second;
  };
  auto get_int = [&](const char* key) {
    try {
      return std::stoi(get(key));
    } catch (const std::exception&) {
      fail(Kind::kSchema, std::string("config key '") + key + "' is not an integer");
    }
  };
  if (get("format") != "ascend-vit")
    fail(Kind::kSchema, "config format '" + get("format") + "' is not 'ascend-vit'");
  ParsedConfig out;
  vit::VitConfig& c = out.topology;
  c.image_size = get_int("image_size");
  c.patch_size = get_int("patch_size");
  c.channels = get_int("channels");
  c.dim = get_int("dim");
  c.layers = get_int("layers");
  c.heads = get_int("heads");
  c.mlp_ratio = get_int("mlp_ratio");
  c.classes = get_int("classes");
  c.approx_softmax_k = get_int("approx_softmax_k");
  const std::string& norm = get("norm");
  if (norm != "bn" && norm != "ln") fail(Kind::kSchema, "config norm '" + norm + "' unknown");
  c.norm = norm == "bn" ? vit::NormKind::kBatchNorm : vit::NormKind::kLayerNorm;
  out.precision.w_bsl = get_int("precision.w");
  out.precision.a_bsl = get_int("precision.a");
  out.precision.r_bsl = get_int("precision.r");
  const std::string& sm = get("softmax");
  if (sm != "exact" && sm != "approx") fail(Kind::kSchema, "config softmax '" + sm + "' unknown");
  out.softmax = sm == "approx" ? nn::SoftmaxKind::kApprox : nn::SoftmaxKind::kExact;
  return out;
}

// ---------------------------------------------------------------------------
// Quantizer calibration: 5 floats {enabled, qn, qp, calibrated, step}.

constexpr int kQstateFloats = 5;

void save_qstate(CheckpointWriter& w, const std::string& prefix, LsqQuantizer& q) {
  const nn::QuantSpec& s = q.spec();
  const float st[kQstateFloats] = {s.enabled ? 1.0f : 0.0f, static_cast<float>(s.qn),
                                   static_cast<float>(s.qp), q.calibrated() ? 1.0f : 0.0f,
                                   q.step()};
  w.add_f32(prefix + ".qstate", {kQstateFloats}, st);
}

void restore_qstate(const CheckpointView& ck, const std::string& prefix, LsqQuantizer& q) {
  const Tensor st = ck.read_f32(prefix + ".qstate");
  if (st.size() != kQstateFloats) fail(Kind::kSchema, "record '" + prefix + ".qstate' malformed");
  nn::QuantSpec spec;
  spec.enabled = st[0] != 0.0f;
  spec.qn = static_cast<int>(std::lround(st[1]));
  spec.qp = static_cast<int>(std::lround(st[2]));
  q.restore_calibration(spec, st[3] != 0.0f, st[4]);
}

// ---------------------------------------------------------------------------
// Load core shared by the eager and mmap paths.

void assign_tensor(const CheckpointView& ck, const MmapCheckpoint* mapped,
                   const std::string& name, Tensor& dst) {
  const Record& r = ck.at(name);
  if (nn::Shape(r.dims) != dst.shape())
    fail(Kind::kSchema, "record '" + name + "' shape does not match the declared topology");
  dst = mapped ? mapped->view_f32(name) : ck.read_f32(name);
}

std::unique_ptr<vit::VisionTransformer> load_common(const CheckpointView& ck,
                                                    const MmapCheckpoint* mapped) {
  // Everything the model owns after a load must survive arena resets, even
  // when the caller loads from inside an activation-arena scope.
  runtime::HeapScope heap;
  const ParsedConfig cfg = parse_config(ck.config());
  auto model = std::make_unique<vit::VisionTransformer>(cfg.topology, /*seed=*/0);
  model->apply_precision(cfg.precision);
  model->set_softmax_kind(cfg.softmax);
  Visitor v;
  v.param = [&](const std::string& name, Param& p) { assign_tensor(ck, mapped, name, p.value); };
  v.stat = [&](const std::string& name, Tensor& t) { assign_tensor(ck, mapped, name, t); };
  v.quant = [&](const std::string& name, LsqQuantizer& q) { restore_qstate(ck, name, q); };
  walk_model(*model, v);
  return model;
}

}  // namespace

void save_model(vit::VisionTransformer& model, const std::string& path) {
  CheckpointWriter w;
  w.set_config(make_config(model));
  Visitor v;
  v.param = [&](const std::string& name, Param& p) {
    w.add_f32(name, dims_of(p.value), p.value.data());
  };
  v.stat = [&](const std::string& name, Tensor& t) { w.add_f32(name, dims_of(t), t.data()); };
  v.quant = [&](const std::string& name, LsqQuantizer& q) { save_qstate(w, name, q); };
  walk_model(model, v);
  w.write(path);
}

std::unique_ptr<vit::VisionTransformer> load_model(const std::string& path) {
  CheckpointReader ck(path);
  return load_common(ck, /*mapped=*/nullptr);
}

MappedModel load_model_mmap(const std::string& path) {
  std::shared_ptr<MmapCheckpoint> ck = MmapCheckpoint::open(path);
  MappedModel out;
  out.model = load_common(*ck, ck.get());
  out.mapping = std::move(ck);
  return out;
}

}  // namespace ascend::serialize

namespace ascend::vit {

void VisionTransformer::save(const std::string& path) { serialize::save_model(*this, path); }

std::unique_ptr<VisionTransformer> VisionTransformer::load(const std::string& path) {
  return serialize::load_model(path);
}

}  // namespace ascend::vit

namespace ascend::runtime {

std::uint64_t ModelRegistry::register_from_file(const std::string& variant_id,
                                                const std::string& path, VariantKind kind,
                                                const RegisterFromFileOptions& opts) {
  std::shared_ptr<Servable> servable;
  try {
    serialize::MappedModel mm = serialize::load_model_mmap(path);
    const vit::ScInferenceConfig sc = opts.sc_config ? *opts.sc_config : vit::ScInferenceConfig{};
    const vit::ScServableOptions so = opts.sc_options ? *opts.sc_options : vit::ScServableOptions{};
    try {
      // The mapping is anchored in the servable, so it outlives every forward.
      servable = vit::make_servable(std::move(mm.model), kind, variant_id, sc, so,
                                    std::move(mm.mapping));
    } catch (const std::invalid_argument& e) {
      // The file is well formed but its model cannot serve as `kind`.
      throw serialize::CheckpointError(serialize::CheckpointError::Kind::kSchema,
                                       "register_from_file('" + variant_id + "'): " + e.what());
    }
  } catch (...) {
    // Failed cold start: nothing was published, the incumbent (if any) keeps
    // serving — that is the rollback the counter reports.
    count_rollback();
    throw;
  }

  if (!opts.canary) return publish(std::move(servable));
  // Supervised path: canary-validate against the incumbent before swapping.
  // publish_checked counts the rollback itself on rejection.
  const PublishResult result = publish_checked(std::move(servable), *opts.canary);
  if (!result.published)
    throw CanaryError("register_from_file('" + variant_id + "'): " + result.error);
  return result.generation;
}

}  // namespace ascend::runtime
