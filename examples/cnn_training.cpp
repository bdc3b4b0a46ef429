// CNN data-parallel training: a small ConvNet learns a synthetic image task
// across 4 worker threads, with its 4-D convolution gradients matricized
// and compressed by PowerSGD every step — the conv path the paper's vision
// workloads (ResNet-50/101) exercise on real clusters.
#include <iostream>
#include <memory>
#include <vector>

#include "comm/thread_comm.hpp"
#include "compress/compressor.hpp"
#include "stats/table.hpp"
#include "tensor/rng.hpp"
#include "train/convnet.hpp"

namespace {

using namespace gradcomp;

// Class c lights up quadrant c of a noisy image.
struct ImageSet {
  tensor::Tensor x;
  std::vector<int> y;
};

ImageSet make_images(std::int64_t per_class, std::int64_t size, std::uint64_t seed) {
  tensor::Rng rng(seed);
  const std::int64_t classes = 4;
  const std::int64_t n = classes * per_class;
  ImageSet data{tensor::Tensor({n, 1, size, size}), {}};
  data.y.resize(static_cast<std::size_t>(n));
  auto px = data.x.data();
  const std::int64_t half = size / 2;
  for (std::int64_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(i % classes);
    data.y[static_cast<std::size_t>(i)] = cls;
    const std::int64_t row0 = (cls / 2) * half;
    const std::int64_t col0 = (cls % 2) * half;
    for (std::int64_t r = 0; r < size; ++r)
      for (std::int64_t c = 0; c < size; ++c)
        px[static_cast<std::size_t>((i * size + r) * size + c)] =
            ((r >= row0 && r < row0 + half && c >= col0 && c < col0 + half) ? 1.0F : 0.0F) +
            0.1F * rng.gaussian();
  }
  return data;
}

}  // namespace

int main() {
  constexpr int kWorkers = 4;
  constexpr std::int64_t kImage = 8;
  const ImageSet data = make_images(/*per_class=*/32, kImage, /*seed=*/17);

  comm::ThreadComm comm(kWorkers);
  std::vector<train::ConvNet> replicas;
  std::vector<std::unique_ptr<compress::Compressor>> compressors;
  std::size_t bytes_per_step = 0;
  for (int r = 0; r < kWorkers; ++r) {
    replicas.emplace_back(1, kImage, 4, /*seed=*/77);
    compress::CompressorConfig config;
    config.method = compress::Method::kPowerSgd;
    config.rank = 2;
    compressors.push_back(compress::make_compressor(config));
  }

  std::cout << "4 workers training a ConvNet (conv3x3 -> conv3x3 -> GAP -> linear) on the\n"
               "quadrant task, PowerSGD rank-2 on every gradient, real all-reduces.\n\n";

  stats::Table table({"step", "loss", "accuracy"});
  for (int step = 0; step <= 80; ++step) {
    std::size_t step_bytes = 0;
    comm::run_ranks(kWorkers, [&](int rank) {
      const auto rr = static_cast<std::size_t>(rank);
      // Round-robin shard.
      std::vector<float> xs;
      std::vector<int> ys;
      auto src = data.x.data();
      const std::int64_t sample = kImage * kImage;
      for (std::int64_t i = rank; i < data.x.dim(0); i += kWorkers) {
        xs.insert(xs.end(), src.begin() + i * sample, src.begin() + (i + 1) * sample);
        ys.push_back(data.y[static_cast<std::size_t>(i)]);
      }
      tensor::Tensor shard_x({static_cast<std::int64_t>(ys.size()), 1, kImage, kImage},
                             std::move(xs));
      replicas[rr].compute_gradients(shard_x, ys);
      auto grads = replicas[rr].gradients();
      std::size_t sent = 0;
      for (std::size_t g = 0; g < grads.size(); ++g)
        sent += compressors[rr]
                    ->aggregate(static_cast<compress::LayerId>(g), rank, comm, *grads[g])
                    .bytes_sent;
      if (rank == 0) step_bytes = sent;
      replicas[rr].apply_sgd(0.5F);
    });
    bytes_per_step = step_bytes;
    if (step % 20 == 0)
      table.add_row({std::to_string(step),
                     stats::Table::fmt(replicas[0].loss(data.x, data.y), 4),
                     stats::Table::fmt(replicas[0].accuracy(data.x, data.y) * 100, 1) + "%"});
  }
  table.print(std::cout);

  std::cout << "\nwire bytes per worker per step: " << bytes_per_step
            << " (vs " << [&] {
                 std::size_t raw = 0;
                 for (auto* g : replicas[0].gradients()) raw += g->byte_size();
                 return raw;
               }() << " uncompressed)\n";
  return 0;
}
