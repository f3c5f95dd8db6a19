#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "shtrace/serve/json.hpp"

namespace perfbench {

double threadCpuSeconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peakRssMb() {
    // VmHWM belongs to this program image; ru_maxrss would carry over the
    // launching process's peak across fork and exec.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
        }
    }
    return 0.0;
}

double median(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1) {
        return upper;
    }
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return 0.5 * (lower + upper);
}

double percentile(std::vector<double> values, double p) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t index =
        static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
    return values[index];
}

double mean(const std::vector<double>& values) {
    if (values.empty()) {
        return 0.0;
    }
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

std::vector<MetricSpec> readMetricSpecs(const std::string& benchmarkJson,
                                        const std::string& section) {
    std::ifstream in(benchmarkJson);
    if (!in) {
        throw std::runtime_error("cannot read " + benchmarkJson);
    }
    std::ostringstream text;
    text << in.rdbuf();
    const shtrace::serve::JsonValue doc = shtrace::serve::parseJson(text.str());
    const shtrace::serve::JsonValue* list = doc.find(section);
    if (list == nullptr) {
        throw std::runtime_error(benchmarkJson + " lacks \"" + section + "\"");
    }
    std::vector<MetricSpec> specs;
    for (const shtrace::serve::JsonValue& metric : list->asArray()) {
        const shtrace::serve::JsonValue* name = metric.find("name");
        const shtrace::serve::JsonValue* unit = metric.find("unit");
        if (name == nullptr || unit == nullptr) {
            throw std::runtime_error(benchmarkJson + ": a metric lacks name or unit");
        }
        specs.push_back({name->asString(), unit->asString()});
    }
    return specs;
}

std::string Result::json(const std::vector<MetricSpec>& specs) const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (correct() ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed()
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto found = values.find(specs[i].name);
        const double v = found != values.end() && std::isfinite(found->second)
                             ? found->second
                             : 0.0;
        out << (i == 0 ? "" : ", ") << "\"" << specs[i].name
            << "\": {\"value\": " << v << ", \"unit\": \"" << specs[i].unit
            << "\"}";
    }
    out << "}}";
    return out.str();
}

}  // namespace perfbench
