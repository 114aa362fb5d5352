#include "sinr/gain_storage.h"

#include <algorithm>

#include "util/error.h"

namespace oisched {

const char* to_string(GainBackend backend) {
  switch (backend) {
    case GainBackend::dense:
      return "dense";
    case GainBackend::computed:
      return "computed";
  }
  return "unknown";
}

bool parse_gain_backend(const std::string& word, GainBackend& backend) {
  if (word == "dense") {
    backend = GainBackend::dense;
  } else if (word == "computed") {
    backend = GainBackend::computed;
  } else {
    return false;
  }
  return true;
}

DenseGainStorage::DenseGainStorage(std::size_t n, std::vector<double> data)
    : n_(n), stride_(n), data_(std::move(data)) {
  require(data_.size() == n_ * n_, "DenseGainStorage: need an n x n table");
}

void DenseGainStorage::refresh_link(std::size_t link, const GainFiller& fill) {
  require(link < n_, "DenseGainStorage: refresh of an out-of-range link");
  for (std::size_t i = 0; i < n_; ++i) {
    if (i == link) continue;
    data_[link * stride_ + i] = fill(link, i);
    data_[i * stride_ + link] = fill(i, link);
  }
}

void DenseGainStorage::append(const GainFiller& fill) {
  const std::size_t n = n_ + 1;
  if (n > stride_) {
    // Grow the capacity by half: the O(n^2) copy is paid once per ~n/2
    // appends, so each fresh link costs amortized O(n).
    const std::size_t stride = std::max(n, stride_ + stride_ / 2);
    std::vector<double> grown(stride * stride, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      std::copy_n(data_.data() + j * stride_, n_, grown.data() + j * stride);
    }
    data_ = std::move(grown);
    stride_ = stride;
  }
  for (std::size_t j = 0; j < n_; ++j) data_[j * stride_ + n_] = fill(j, n_);
  double* fresh = data_.data() + n_ * stride_;
  for (std::size_t i = 0; i < n_; ++i) fresh[i] = fill(n_, i);
  fresh[n_] = 0.0;
  n_ = n;
}

ComputedGainStorage::ComputedGainStorage(std::size_t n, GainFiller fill)
    : n_(n), fill_(std::move(fill)), cache_(n, 0.0) {
  require(static_cast<bool>(fill_), "ComputedGainStorage: filler must be callable");
}

std::span<const double> ComputedGainStorage::row(std::size_t j) const {
  if (cache_row_ != j) {
    for (std::size_t k = 0; k < n_; ++k) {
      cache_[k] = (k == j) ? 0.0 : fill_(j, k);
    }
    cache_row_ = j;
    ++rows_materialized_;
  }
  return {cache_.data(), n_};
}

void ComputedGainStorage::refresh_link(std::size_t link) {
  require(link < n_, "ComputedGainStorage: refresh of an out-of-range link");
  cache_row_ = kNoRow;
}

}  // namespace oisched
