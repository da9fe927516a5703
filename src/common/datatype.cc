#include "common/datatype.h"

#include "common/logging.h"

namespace dstc {

const char *
dataTypeToken(DataType dtype)
{
    switch (dtype) {
      case DataType::Fp32:
        return "fp32";
      case DataType::Fp16:
        return "fp16";
      case DataType::Bf16:
        return "bf16";
      case DataType::Int8:
        return "int8";
      case DataType::Int4:
        return "int4";
    }
    panic("unknown datatype");
}

bool
parseDataType(const std::string &token, DataType *out)
{
    for (DataType dt : {DataType::Fp32, DataType::Fp16, DataType::Bf16,
                        DataType::Int8, DataType::Int4}) {
        if (token == dataTypeToken(dt)) {
            *out = dt;
            return true;
        }
    }
    return false;
}

QuantSpec
QuantSpec::forValues(DataType dtype, const float *data, size_t n)
{
    if (!dataTypeIsInteger(dtype))
        return QuantSpec{dtype, 1.0f};
    float max_abs = 0.0f;
    for (size_t i = 0; i < n; ++i) {
        const float a = std::fabs(data[i]);
        if (a > max_abs)
            max_abs = a;
    }
    return forMaxAbs(dtype, max_abs);
}

} // namespace dstc
